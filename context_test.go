package cleansel_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	cleansel "github.com/factcheck/cleansel"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/parallel"
)

// slowUniquenessTask builds a deliberately expensive Uniqueness solve:
// 6-point supports under width-8 claim windows cost 6^8 ≈ 1.7M
// enumerations per term, and 50 terms keep a sequential solve busy for
// many seconds — while any single term (the cancellation granularity)
// stays well under a second.
func slowUniquenessTask(t *testing.T) cleansel.Task {
	t.Helper()
	const n, w = 400, 8
	objs := make([]cleansel.Object, n)
	for i := range objs {
		vals := make([]float64, 6)
		for j := range vals {
			vals[j] = float64(10*i + j)
		}
		objs[i] = cleansel.Object{
			Name:    "o",
			Current: vals[3],
			Cost:    1,
			Value:   cleansel.UniformOver(vals),
		}
	}
	db := cleansel.NewDB(objs)
	orig := cleansel.WindowSum("orig", n-w, w)
	perturbs := cleansel.NonOverlappingWindows("w", n, w, n-w, 0.5)
	set, err := cleansel.NewPerturbationSet(orig, cleansel.LowerIsStronger, 100, perturbs)
	if err != nil {
		t.Fatal(err)
	}
	return cleansel.Task{
		DB:      db,
		Claims:  set,
		Measure: cleansel.Uniqueness,
		Goal:    cleansel.MinimizeUncertainty,
		Budget:  float64(n) / 4,
	}
}

// TestSelectContextCancelsPromptly is the acceptance test for
// end-to-end cancellation: a cancelled context must surface out of a
// multi-second solve within the per-work-item granularity.
func TestSelectContextCancelsPromptly(t *testing.T) {
	task := slowUniquenessTask(t)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := cleansel.SelectContext(ctx, task)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectContext returned %v, want context.Canceled", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("SelectContext took %v to notice cancellation", elapsed)
	}
}

func TestSelectContextPreCancelled(t *testing.T) {
	task := slowUniquenessTask(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []cleansel.Algorithm{cleansel.AlgoGreedy, cleansel.AlgoBest} {
		task.Algorithm = algo
		start := time.Now()
		if _, err := cleansel.SelectContext(ctx, task); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", algo, err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("%v: pre-cancelled SelectContext still ran for %v", algo, elapsed)
		}
	}
}

// TestRankAndAssessContextCancelled covers the other two context APIs.
func TestRankAndAssessContextCancelled(t *testing.T) {
	task := slowUniquenessTask(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cleansel.RankObjectsContext(ctx, task.DB, task.Claims, cleansel.Uniqueness); !errors.Is(err, context.Canceled) {
		t.Fatalf("RankObjectsContext: err = %v, want context.Canceled", err)
	}
	if _, err := cleansel.AssessClaimContext(ctx, task.DB, task.Claims); !errors.Is(err, context.Canceled) {
		t.Fatalf("AssessClaimContext: err = %v, want context.Canceled", err)
	}
}

// TestSelectBitIdenticalAcrossWorkerCounts pins the public-API
// determinism contract: CLEANSEL_WORKERS=1 and many-worker runs agree
// bit for bit on the full Result. The sliding-window claim set has
// overlapping terms, so the group engine carries covariance pairs and
// the greedy's parallel refresh re-scores them.
func TestSelectBitIdenticalAcrossWorkerCounts(t *testing.T) {
	db := cleansel.URx(48, 7)
	orig := cleansel.WindowSum("orig", 44, 4)
	claimSets := map[string][]cleansel.Perturbed{
		"disjoint": cleansel.NonOverlappingWindows("w", 48, 4, 44, 0.5),
		"sliding":  cleansel.SlidingWindows("w", 48, 4, 44, 0.5),
	}
	for name, perturbs := range claimSets {
		set, err := cleansel.NewPerturbationSet(orig, cleansel.LowerIsStronger, 100, perturbs)
		if err != nil {
			t.Fatal(err)
		}
		if name == "sliding" {
			eng, err := ev.NewGroupEngine(db, set.Dup())
			if err != nil {
				t.Fatal(err)
			}
			if eng.NumPairs() == 0 {
				t.Fatal("sliding windows produced no overlapping pairs; the pair paths go untested")
			}
		}
		for _, measure := range []cleansel.Measure{cleansel.Uniqueness, cleansel.Robustness, cleansel.Fairness} {
			task := cleansel.Task{
				DB: db, Claims: set,
				Measure: measure,
				Goal:    cleansel.MinimizeUncertainty,
				Budget:  db.Budget(0.3),
			}
			t.Setenv(parallel.EnvWorkers, "1")
			want, err := cleansel.Select(task)
			if err != nil {
				t.Fatalf("%s/%v workers=1: %v", name, measure, err)
			}
			wantRank, err := cleansel.RankObjects(db, set, measure)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []string{"2", "8"} {
				t.Setenv(parallel.EnvWorkers, workers)
				got, err := cleansel.Select(task)
				if err != nil {
					t.Fatalf("%s/%v workers=%s: %v", name, measure, workers, err)
				}
				if got.Before != want.Before || got.After != want.After || got.CostSpent != want.CostSpent ||
					!reflect.DeepEqual(got.Set, want.Set) {
					t.Fatalf("%s/%v: workers=%s result %+v != workers=1 result %+v", name, measure, workers, got, want)
				}
				// The ranking path must agree too.
				gotRank, err := cleansel.RankObjects(db, set, measure)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotRank, wantRank) {
					t.Fatalf("%s/%v: workers=%s ranking differs from workers=1", name, measure, workers)
				}
			}
		}
	}
}

// TestSelectParallelWorkloadPinned pins the exact answers of
// BenchmarkSelectParallel's workload — the float64 bits of Before and
// After and the chosen set — as the pre-odometer engine computed them,
// so a faster greedy cannot drift from the one it replaced.
func TestSelectParallelWorkloadPinned(t *testing.T) {
	db, set := wideUniquenessWorkload(120)
	pins := []struct {
		measure       cleansel.Measure
		before, after uint64
		chosen        []int
	}{
		{cleansel.Uniqueness, 0x3f8b75bde09a735a, 0x3f15d610d8072022,
			[]int{36, 37, 38, 39, 40, 41, 43, 44, 45, 46, 47, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 100, 101}},
		{cleansel.Robustness, 0x41915739ccdab2a9, 0x4120cb4059c0639f,
			[]int{72, 80, 82, 84, 88, 89, 90, 91, 92, 93, 94, 96, 97, 98, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 114, 116, 117, 118, 119}},
	}
	for _, p := range pins {
		res, err := cleansel.Select(cleansel.Task{
			DB: db, Claims: set,
			Measure: p.measure,
			Goal:    cleansel.MinimizeUncertainty,
			Budget:  db.Budget(0.25),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(res.Before); got != p.before {
			t.Errorf("%v: Before bits %#x (%v), want %#x", p.measure, got, res.Before, p.before)
		}
		if got := math.Float64bits(res.After); got != p.after {
			t.Errorf("%v: After bits %#x (%v), want %#x", p.measure, got, res.After, p.after)
		}
		if got := []int(res.Set); !reflect.DeepEqual(got, p.chosen) {
			t.Errorf("%v: chosen %v, want %v", p.measure, got, p.chosen)
		}
	}
}
