package main

import (
	"testing"
)

// TestReplayMatchesServer drives a tiny sequence of every workload
// through a real in-process server, untraced and traced, and checks
// that the in-process replay predicts every response bit for bit.
func TestReplayMatchesServer(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			datasets := genDatasets(spec, 5)
			tgt, err := startTarget()
			if err != nil {
				t.Fatal(err)
			}
			defer tgt.close()
			var ids []string
			for _, objs := range datasets {
				id, err := tgt.upload(objs)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			_, timed, err := genSequence(spec, 5, ids, datasets, ids, datasets, 1)
			if err != nil {
				t.Fatal(err)
			}
			ops := timed[:3]
			plain, err := runPass(tgt, ops, 1, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runPass(tgt, ops, 1, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := newReplay(ids, datasets, true)
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range ops {
				if plain.ops[i].err != nil {
					t.Fatalf("op %d: %v", i, plain.ops[i].err)
				}
				want, err := rp.sums(o, true)
				if err != nil {
					t.Fatalf("op %d: replay: %v", i, err)
				}
				if !sameSums(want, plain.ops[i].ex) {
					t.Errorf("op %d: the replay does not match the response", i)
				}
				if !sameExchanges(plain.ops[i].ex, traced.ops[i].ex) {
					t.Errorf("op %d: the traced result differs from the untraced one", i)
				}
				want[len(want)-1][0] ^= 1
				if sameSums(want, plain.ops[i].ex) {
					t.Errorf("op %d: a changed response still matched", i)
				}
			}
			// The second pass repeated every request, so the cache served
			// it; a fresh server would not have.
			if countsOf(traced)["cache_hits"] == 0 && spec.datasets > 0 {
				t.Error("repeated select/triage requests were not served from the cache")
			}
			before := responseDigest(plain.ops)
			plain.ops[0].ex[0].sum[0] ^= 1
			if responseDigest(plain.ops) == before {
				t.Error("the digest ignored a changed response")
			}
		})
	}
}

// TestWarmGolden checks a real set-up of every workload against the
// committed warm-up digests, and that the warm-up does not depend on
// the run's seed.
func TestWarmGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sends every workload's warm-up")
	}
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			want, err := golden(spec.name)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{1, 2} {
				tgt, in, err := setUp(spec, seed, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := tgt.close(); err != nil {
					t.Fatal(err)
				}
				if in.warmDigest != want {
					t.Errorf("seed %d: warm-up digest %s, golden.json has %s", seed, in.warmDigest, want)
				}
			}
		})
	}
}

func TestExactCounts(t *testing.T) {
	got := exact(map[string]float64{
		"cache_hits": 3, "ev_calls": 5, "ev_shared_hits": 2, "ev_shared_misses": 4,
		"parallel_fanouts": 9, "conv_ops": 0,
	}, []string{"ev_shared_hits", "ev_shared_misses", "parallel_fanouts"})
	want := map[string]float64{"ev_calls": 5, "ev_shared_lookups": 6}
	if len(got) != len(want) {
		t.Fatalf("exact = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("exact = %v, want %v", got, want)
		}
	}
}

func TestGuards(t *testing.T) {
	if err := (guard{counter: "conv_ops"}).check(map[string]float64{"conv_ops": 1}); err == nil {
		t.Error("a zero guard passed a nonzero count")
	}
	if err := (guard{counter: "ev_calls", positive: true}).check(map[string]float64{}); err == nil {
		t.Error("a positive guard passed a missing count")
	}
	if err := (guard{counter: "cache_hits"}).check(map[string]float64{"cache_hits": 0}); err != nil {
		t.Error(err)
	}
}
