package main

import (
	"bytes"
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/maxpr"
)

// sequence generates a workload's inputs without a server: dataset ids
// are stand-ins, as the generator only copies them into bodies.
func sequence(t *testing.T, spec *workloadSpec, seed uint64, seconds int) (datasets [][]objectJSON, warm, timed []op) {
	t.Helper()
	datasets = genDatasets(spec, seed)
	ids := make([]string, len(datasets))
	for i := range ids {
		ids[i] = "ds" + string(rune('a'+i))
	}
	warmData := genDatasets(spec, warmSeed)
	warm, timed, err := genSequence(spec, seed, ids, warmData, ids, datasets, seconds)
	if err != nil {
		t.Fatal(err)
	}
	return datasets, warm, timed
}

func sameOps(a, b []op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Path != b[i].Path || !bytes.Equal(a[i].Body, b[i].Body) || len(a[i].Truth) != len(b[i].Truth) {
			return false
		}
		for j := range a[i].Truth {
			if a[i].Truth[j] != b[i].Truth[j] {
				return false
			}
		}
	}
	return true
}

func TestSequenceDeterministic(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			d1, w1, t1 := sequence(t, spec, 7, 1)
			d2, w2, t2 := sequence(t, spec, 7, 1)
			if !bytes.Equal(mustJSON(d1), mustJSON(d2)) || !sameOps(w1, w2) || !sameOps(t1, t2) {
				t.Fatal("the same seed gave different inputs")
			}
			_, _, t3 := sequence(t, spec, 8, 1)
			if sameOps(t1, t3) {
				t.Fatal("different seeds gave the same inputs")
			}
		})
	}
}

// opsPerCycle is the number of ops one task-mix cycle holds.
func opsPerCycle(spec *workloadSpec) int {
	g := &genState{r: newRNG(0, "probe"), stream: "probe"}
	if spec.datasets > 0 {
		g.id, g.objs = "probe", genDatasets(spec, 0)[0]
	}
	return len(spec.cycle(g))
}

func TestSequenceShape(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			// The untraced replay check, every replayStride-th op, reaches
			// every op of a cycle only if the two are coprime.
			gcd := func(a, b int) int {
				for b != 0 {
					a, b = b, a%b
				}
				return a
			}
			if n := opsPerCycle(spec); n != spec.cycleOps || gcd(n, replayStride) != 1 {
				t.Errorf("cycle of %d ops, cycleOps %d, replay stride %d", n, spec.cycleOps, replayStride)
			}
			for _, seconds := range []int{1, 3} {
				_, warm, timed := sequence(t, spec, 11, seconds)
				round := opsPerCycle(spec) * max(1, spec.datasets)
				if len(timed)%round != 0 {
					t.Errorf("%ds: %d timed ops is not a whole number of rounds of %d", seconds, len(timed), round)
				}
				if want := spec.cycles(seconds) * opsPerCycle(spec); len(timed) < max(want, minTimedOps) {
					t.Errorf("%ds: %d timed ops, want at least %d", seconds, len(timed), max(want, minTimedOps))
				}
				if len(warm) != spec.warmCycles*opsPerCycle(spec) {
					t.Errorf("%ds: %d warm-up ops, want %d cycles", seconds, len(warm), spec.warmCycles)
				}
				seen := map[string]bool{}
				for _, o := range append(append([]op{}, warm...), timed...) {
					if seen[string(o.Body)] {
						t.Fatalf("%ds: a request body repeats", seconds)
					}
					seen[string(o.Body)] = true
				}
			}
		})
	}
}

// TestMaxPrStaysExact pins the sizing argument of maxpr-discrete: no
// affordable candidate set is large enough to leave exact convolution.
func TestMaxPrStaysExact(t *testing.T) {
	spec, err := workloadByName("maxpr-discrete")
	if err != nil {
		t.Fatal(err)
	}
	for _, objs := range genDatasets(spec, 3) {
		for _, o := range objs {
			if o.Cost != maxprCost || len(o.Values) != 6 {
				t.Fatalf("object %s: cost %v, %d values", o.Name, o.Cost, len(o.Values))
			}
		}
	}
	largest := maxprMaxBudget / maxprCost
	if states := math.Pow(6, float64(largest)); states > maxpr.DefaultMaxStates {
		t.Errorf("a budget of %d buys %d objects, %v states: over the exact cap %d", maxprMaxBudget, largest, states, maxpr.DefaultMaxStates)
	}
}

// TestWidePattern pins minvar-wide's fixed work per window term.
func TestWidePattern(t *testing.T) {
	for start := 0; start+wideW <= wideN; start++ {
		prod := 1
		for i := start; i < start+wideW; i++ {
			prod *= widePattern(i)
		}
		if prod != 4320 {
			t.Fatalf("window at %d enumerates %d outcomes, want 4320", start, prod)
		}
	}
}
