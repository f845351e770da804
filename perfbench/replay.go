package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	cleansel "github.com/factcheck/cleansel"
	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/obs"
	progrng "github.com/factcheck/cleansel/internal/rng"
	"github.com/factcheck/cleansel/internal/server/wire"
	"github.com/factcheck/cleansel/internal/session"
)

// The replay runs a sequence's inputs in process through each layer's
// public functions, the same calls the daemon makes for them, with
// timers around each call. The timers live here, in the benchmark: the
// program gets no new tracing. The program's own spans and counters
// are read from a recorder attached to the replay's context.
//
// The replay is a copy of program code, and must change when it does:
//   - selectOp mirrors handleSelect (internal/server/handlers.go), and
//     minVar and maxPr mirror selectMinVar and selectMaxPr (cleansel.go)
//     down to the evaluator constants;
//   - triageOp mirrors handleTriage (internal/server/handlers.go);
//   - episode mirrors handleSessionCreate, handleSessionClean,
//     handleSessionGet and handleSessionDelete
//     (internal/server/sessions.go).
// Its results must equal the server's bit for bit, and a traced run
// compares its solve time with the server's own solve and step spans
// (replay.solve_ratio), so a copy that drifts from the program shows.

// layerClock accumulates benchmark-side timers by layer metric name.
type layerClock map[string]time.Duration

// time runs f and charges its wall time to name.
func (l layerClock) time(name string, f func() error) error {
	start := time.Now()
	err := f()
	l[name] += time.Since(start)
	return err
}

func (l layerClock) ms(name string) float64 { return float64(l[name].Nanoseconds()) / 1e6 }

// replay holds one replay's state: the datasets the daemon would
// resolve by id, the recorder, the timers and the evaluator tallies.
type replay struct {
	ctx context.Context
	rec *obs.Recorder
	dbs map[string]*cleansel.DB
	// full also times the public cleansel call on the selects it is
	// asked to (a second solve, so only traced runs pay for it).
	full     bool
	apiCalls int64
	clock    layerClock
	probs    int64
	sessions *session.Manager
	steps    int64
}

func newReplay(ids []string, datasets [][]objectJSON, full bool) (*replay, error) {
	rec := obs.NewRecorder(nil)
	r := &replay{
		ctx:   obs.WithRecorder(context.Background(), rec),
		rec:   rec,
		full:  full,
		dbs:   map[string]*cleansel.DB{},
		clock: layerClock{},
	}
	for i, objs := range datasets {
		ds, err := wire.DecodeDataset(bytes.NewReader(mustJSON(datasetJSON{Name: "bench", Objects: objs})))
		if err != nil {
			return nil, err
		}
		if r.dbs[ids[i]], err = wire.BuildDB(ds.Objects); err != nil {
			return nil, err
		}
	}
	mgr, err := session.NewManager(session.Config{
		Clock:  obs.SystemClock,
		MintID: func() string { return sessionPlaceholder },
	})
	if err != nil {
		return nil, err
	}
	r.sessions = mgr
	return r, nil
}

// db resolves a dataset id as the daemon's store would.
func (r *replay) db(id string) (*cleansel.DB, error) {
	if db, ok := r.dbs[id]; ok {
		return db, nil
	}
	return nil, fmt.Errorf("replay: unknown dataset %q", id)
}

// sums replays one op and returns the hash of each response it
// expects, in exchange order.
func (r *replay) sums(o op, api bool) ([][32]byte, error) {
	switch {
	case o.Truth != nil:
		return r.episode(o)
	case o.Path == "/v1/select":
		b, err := r.selectOp(o.Body, api && r.full)
		return [][32]byte{sha256.Sum256(b)}, err
	case o.Path == "/v1/triage":
		b, err := r.triageOp(o.Body)
		return [][32]byte{sha256.Sum256(b)}, err
	}
	return nil, fmt.Errorf("replay: no replay for %s", o.Path)
}

// selectOp mirrors the /v1/select handler and cleansel.SelectContext
// layer by layer.
func (r *replay) selectOp(body []byte, api bool) ([]byte, error) {
	var req wire.Task
	if err := r.clock.time("wire.decode", func() (err error) {
		req, err = wire.DecodeTask(bytes.NewReader(body))
		return err
	}); err != nil {
		return nil, err
	}
	var task cleansel.Task
	if err := r.clock.time("wire.build", func() (err error) {
		db, err := r.db(req.DatasetID)
		if err != nil {
			return err
		}
		task, err = req.BuildTask(db)
		return err
	}); err != nil {
		return nil, err
	}
	if _, err := task.DB.Discretes(); err != nil || task.Algorithm != cleansel.AlgoGreedy || task.DB.Cov != nil {
		return nil, errors.New("replay: benchmark selects are greedy over independent discrete data")
	}
	var res cleansel.Result
	err := r.clock.time("solve.select", func() (err error) {
		switch {
		case task.Goal == cleansel.MinimizeUncertainty && task.Measure != cleansel.Fairness:
			res, err = r.minVar(task)
		case task.Goal == cleansel.MaximizeSurprise:
			res, err = r.maxPr(task)
		default:
			err = fmt.Errorf("replay: no layered replay for %v/%v", task.Goal, task.Measure)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if api {
		// The public call, on a context without the recorder so the
		// program's counters count each solve once.
		var direct cleansel.Result
		if err := r.clock.time("cleansel.call", func() (err error) {
			direct, err = cleansel.SelectContext(context.Background(), task)
			return err
		}); err != nil {
			return nil, err
		}
		r.apiCalls++
		if !bytes.Equal(mustJSON(wire.EncodeResult(direct)), mustJSON(wire.EncodeResult(res))) {
			return nil, errors.New("replay: cleansel.SelectContext disagrees with the layered replay")
		}
	}
	return json.Marshal(wire.EncodeResult(res))
}

// minVar is selectMinVar's uniqueness/robustness greedy path.
func (r *replay) minVar(task cleansel.Task) (cleansel.Result, error) {
	g := task.Claims.Dup()
	if task.Measure == cleansel.Robustness {
		g = task.Claims.Frag()
	}
	var (
		engine *ev.GroupEngine
		sel    *core.GreedyMinVarGroup
		T      model.Set
		before float64
		after  float64
	)
	err := r.clock.time("ev.engine_build", func() (err error) {
		if engine, err = ev.NewGroupEngine(task.DB, g); err != nil {
			return err
		}
		sel, err = core.NewGreedyMinVarGroup(task.DB, g)
		return err
	})
	if err == nil {
		err = r.clock.time("core.select", func() (err error) {
			T, err = core.SelectWithContext(r.ctx, sel, task.Budget)
			return err
		})
	}
	if err == nil {
		err = r.clock.time("ev.final_ev", func() (err error) {
			if before, err = ev.EVWithContext(r.ctx, engine, nil); err != nil {
				return err
			}
			after, err = ev.EVWithContext(r.ctx, engine, T)
			return err
		})
	}
	return selectResult(task.DB, T, before, after), err
}

// timedEval is the benchmark's maxpr.Evaluator decorator: it counts
// and times every evaluation that reaches the exact/fallback evaluator.
type timedEval struct {
	inner maxpr.Evaluator
	calls *int64
	clock layerClock
}

func (e timedEval) Prob(T model.Set) float64 {
	start := time.Now()
	p := e.inner.Prob(T)
	e.clock["maxpr.prob"] += time.Since(start)
	*e.calls++
	return p
}

// maxPr is selectMaxPr's discrete path: the hybrid evaluator, memoized,
// under GreedyMaxPr.
func (r *replay) maxPr(task cleansel.Task) (cleansel.Result, error) {
	if task.Measure != cleansel.Fairness {
		return cleansel.Result{}, errors.New("replay: MaxPr needs the fairness measure")
	}
	var (
		sel  *core.GreedyMaxPr
		eval maxpr.Evaluator
		T    model.Set
	)
	h, err := maxpr.NewHybrid(task.DB, task.Claims.Bias(), task.Tau, 0, 20000, progrng.New(task.Seed^0x51ec7))
	if err == nil {
		h.Observe(r.rec)
		eval = maxpr.NewCached(timedEval{inner: h, calls: &r.probs, clock: r.clock})
		sel, err = core.NewGreedyMaxPr(task.DB, eval)
	}
	if err == nil {
		err = r.clock.time("core.select", func() (err error) {
			T, err = core.SelectWithContext(r.ctx, sel, task.Budget)
			return err
		})
	}
	if err != nil {
		return cleansel.Result{}, err
	}
	return selectResult(task.DB, T, eval.Prob(nil), eval.Prob(T)), nil
}

func selectResult(db *cleansel.DB, T model.Set, before, after float64) cleansel.Result {
	res := cleansel.Result{Set: T, Before: before, After: after, CostSpent: T.Cost(db)}
	for _, o := range T {
		res.Chosen = append(res.Chosen, db.Objects[o].Name)
	}
	return res
}

// triageOp mirrors the /v1/triage handler.
func (r *replay) triageOp(body []byte) ([]byte, error) {
	var req wire.TriageRequest
	if err := r.clock.time("wire.decode", func() (err error) {
		req, err = wire.DecodeTriage(bytes.NewReader(body))
		return err
	}); err != nil {
		return nil, err
	}
	var (
		work      *cleansel.DB
		measure   cleansel.Measure
		sets      []*cleansel.PerturbationSet
		buildErrs []error
	)
	if err := r.clock.time("wire.build", func() (err error) {
		db, err := r.db(req.DatasetID)
		if err != nil {
			return err
		}
		work, measure, sets, buildErrs, err = req.BuildTriage(db)
		return err
	}); err != nil {
		return nil, err
	}
	var (
		reports    []cleansel.QualityReport
		assessErrs []error
	)
	if err := r.clock.time("core.triage_assess", func() error {
		tc, err := cleansel.NewTriageContext(work)
		if err != nil {
			return err
		}
		reports, assessErrs, err = tc.AssessClaims(r.ctx, sets)
		return err
	}); err != nil {
		return nil, err
	}
	names := make([]string, len(req.Claims))
	errs := make([]error, len(req.Claims))
	uniq := map[string]bool{}
	for i := range req.Claims {
		names[i] = req.Claims[i].Claim.Name
		switch {
		case buildErrs[i] != nil:
			errs[i] = buildErrs[i]
		case assessErrs[i] != nil:
			errs[i] = assessErrs[i]
		default:
			uniq[sets[i].Signature()] = true
		}
	}
	return json.Marshal(wire.EncodeTriage(measure, names, reports, errs, len(uniq)))
}

// episode mirrors the session handlers over one create → clean… → get
// → delete episode, following each recommendation with the true value.
func (r *replay) episode(o op) ([][32]byte, error) {
	var req wire.SessionRequest
	if err := r.clock.time("wire.decode", func() (err error) {
		req, err = wire.DecodeSession(bytes.NewReader(o.Body))
		return err
	}); err != nil {
		return nil, err
	}
	var (
		goal session.Goal
		db   *cleansel.DB
		set  *cleansel.PerturbationSet
	)
	if err := r.clock.time("wire.build", func() (err error) {
		if goal, err = session.ParseGoal(req.Goal); err != nil {
			return err
		}
		if db, err = wire.BuildDB(req.Objects); err != nil {
			return err
		}
		set, err = req.Problem.BuildSet(db)
		return err
	}); err != nil {
		return nil, err
	}
	spec, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	st, err := session.NewStepper(db, set.Bias(), goal, req.Tau, req.Budget)
	if err != nil {
		return nil, err
	}
	var sums [][32]byte
	add := func(s session.State) error {
		b, err := json.Marshal(wire.EncodeSessionState(s))
		sums = append(sums, sha256.Sum256(b))
		return err
	}
	var state session.State
	if err := r.clock.time("session.create", func() (err error) {
		state, err = r.sessions.Create(spec, st, r.rec)
		return err
	}); err != nil {
		return nil, err
	}
	if err := add(state); err != nil {
		return nil, err
	}
	for state.Rec != nil {
		obj := state.Rec.Object
		if err := r.clock.time("session.step", func() (err error) {
			state, err = r.sessions.Clean(state.ID, state.Steps, obj, o.Truth[obj], r.rec)
			return err
		}); err != nil {
			return nil, err
		}
		r.steps++
		if err := add(state); err != nil {
			return nil, err
		}
	}
	if state, err = r.sessions.Get(state.ID, r.rec); err != nil {
		return nil, err
	}
	if err := add(state); err != nil {
		return nil, err
	}
	if err := r.sessions.Delete(state.ID); err != nil {
		return nil, err
	}
	deleted := mustJSON(map[string]string{"deleted": sessionPlaceholder})
	return append(sums, sha256.Sum256(deleted)), nil
}
