package cleansel_test

import (
	"context"
	"reflect"
	"testing"

	cleansel "github.com/factcheck/cleansel"
	"github.com/factcheck/cleansel/internal/obs"
)

// TestRecorderIsOffPath pins the observability contract: a Select run
// with a trace recorder attached must return a bit-identical Result to
// the same run without one — recording is strictly write-only. The
// test also asserts the recorder saw real engine activity, so the
// guarantee is not satisfied vacuously by a recorder nothing ticks.
func TestRecorderIsOffPath(t *testing.T) {
	db := crimeDB(t)
	set := crimeSet(t, db)
	tasks := map[string]cleansel.Task{
		"minvar-uniqueness": {
			DB: db, Claims: set,
			Measure: cleansel.Uniqueness, Goal: cleansel.MinimizeUncertainty,
			Algorithm: cleansel.AlgoGreedy, Budget: 2,
		},
		"minvar-robustness": {
			DB: db, Claims: set,
			Measure: cleansel.Robustness, Goal: cleansel.MinimizeUncertainty,
			Algorithm: cleansel.AlgoGreedy, Budget: 2,
		},
		"maxpr-hybrid": {
			DB: db, Claims: set,
			Measure: cleansel.Fairness, Goal: cleansel.MaximizeSurprise,
			Budget: 2, Tau: 10, Seed: 3,
		},
	}
	for name, task := range tasks {
		t.Run(name, func(t *testing.T) {
			plain, err := cleansel.SelectContext(context.Background(), task)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.NewRecorder(nil)
			traced, err := cleansel.SelectContext(obs.WithRecorder(context.Background(), rec), task)
			if err != nil {
				t.Fatal(err)
			}
			// Bit-identical, not approximately equal: Before/After are
			// float64s compared with ==, the set and names exactly.
			if !reflect.DeepEqual(plain, traced) {
				t.Fatalf("recorder changed the result:\nwithout: %+v\nwith:    %+v", plain, traced)
			}
			tr := rec.Snapshot()
			if len(tr.Counters) == 0 && len(tr.Stages) == 0 {
				t.Fatal("recorder saw no activity; the off-path guarantee was tested vacuously")
			}
		})
	}
}

// TestRecorderCountersNameTheEngines asserts the solve ticks land under
// the documented counter names, per goal.
func TestRecorderCountersNameTheEngines(t *testing.T) {
	db := crimeDB(t)
	set := crimeSet(t, db)

	rec := obs.NewRecorder(nil)
	ctx := obs.WithRecorder(context.Background(), rec)
	if _, err := cleansel.SelectContext(ctx, cleansel.Task{
		DB: db, Claims: set,
		Measure: cleansel.Uniqueness, Goal: cleansel.MinimizeUncertainty,
		Algorithm: cleansel.AlgoGreedy, Budget: 2,
	}); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, c := range rec.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	for _, want := range []string{"ev_cache_hits", "ev_cache_misses", "parallel_items"} {
		if _, ok := got[want]; !ok {
			t.Errorf("minvar solve did not tick %q (got %v)", want, got)
		}
	}
	// The greedy's re-scores count under their own names, apart from
	// ev_cache_*, which keeps counting the from-scratch EV calls only.
	// On this instance the cleans reuse their objects' last re-scores,
	// so both counters are positive.
	for _, want := range []string{"greedy_refreshes", "greedy_memo_hits"} {
		if got[want] == 0 {
			t.Errorf("minvar solve counted no %q (got %v)", want, got)
		}
	}
	stages := map[string]bool{}
	for _, s := range rec.Snapshot().Stages {
		stages[s.Name] = true
	}
	for _, want := range []string{"ev_state_init", "singleton_benefits", "select_loop"} {
		if !stages[want] {
			t.Errorf("minvar solve recorded no %q span (got %v)", want, stages)
		}
	}

	rec = obs.NewRecorder(nil)
	ctx = obs.WithRecorder(context.Background(), rec)
	if _, err := cleansel.SelectContext(ctx, cleansel.Task{
		DB: db, Claims: set,
		Measure: cleansel.Fairness, Goal: cleansel.MaximizeSurprise,
		Budget: 2, Tau: 10, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	got = map[string]int64{}
	for _, c := range rec.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	if got["maxpr_exact"] == 0 {
		t.Errorf("maxpr solve did not count exact evaluations (got %v)", got)
	}
	if got["conv_ops"] == 0 {
		t.Errorf("maxpr solve did not count convolution work (got %v)", got)
	}
}
