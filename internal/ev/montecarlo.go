package ev

import (
	"context"
	"errors"
	"fmt"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/parallel"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// MonteCarlo estimates EV(T) for arbitrary query functions over
// independent discrete values by nested sampling: the outer loop draws a
// cleaning outcome v ~ X_T, the inner loop estimates Var[f(X) | X_T = v].
// §3.1 suggests exactly this estimator when exact benefit computation is
// intractable.
type MonteCarlo struct {
	db    *model.DB
	dists []*dist.Discrete
	f     query.Function
	outer int
	inner int
	r     *rng.RNG
}

// NewMonteCarlo builds the estimator; outer/inner are the sample counts of
// the two loops.
func NewMonteCarlo(db *model.DB, f query.Function, outer, inner int, r *rng.RNG) (*MonteCarlo, error) {
	if db.Cov != nil {
		return nil, errors.New("ev: MonteCarlo requires independent values")
	}
	if outer <= 0 || inner <= 1 {
		return nil, fmt.Errorf("ev: need outer >= 1, inner >= 2; got %d/%d", outer, inner)
	}
	ds, err := db.Discretes()
	if err != nil {
		return nil, fmt.Errorf("ev: MonteCarlo: %w", err)
	}
	return &MonteCarlo{db: db, dists: ds, f: f, outer: outer, inner: inner, r: r}, nil
}

// EV returns the nested Monte-Carlo estimate of the objective. The inner
// variance uses the unbiased (n−1) estimator so the outer average is an
// unbiased estimate of EV(T).
func (m *MonteCarlo) EV(T model.Set) float64 {
	v, err := m.EVCtx(context.Background(), T)
	if err != nil {
		panic(err) // Background is never cancelled; no other error exists
	}
	return v
}

// EVCtx is EV with cooperative cancellation, checked between outer
// samples. The estimator draws every sample from the single shared
// stream in a fixed order, so it stays sequential — use
// ShardedMonteCarlo when the outer loop should run on the worker pool.
func (m *MonteCarlo) EVCtx(ctx context.Context, T model.Set) (float64, error) {
	n := m.db.N()
	rest := T.Complement(n)
	x := make([]float64, n)
	var outerAcc numeric.Welford
	for o := 0; o < m.outer; o++ {
		if err := ctx.Err(); err != nil {
			return 0, context.Cause(ctx)
		}
		for _, i := range T {
			x[i] = m.dists[i].Sample(m.r)
		}
		var innerAcc numeric.Welford
		for in := 0; in < m.inner; in++ {
			for _, i := range rest {
				x[i] = m.dists[i].Sample(m.r)
			}
			innerAcc.Add(m.f.Eval(x))
		}
		outerAcc.Add(innerAcc.SampleVar())
	}
	return outerAcc.Mean(), nil
}

// ShardedMonteCarlo is the parallel form of MonteCarlo: every outer
// sample owns an independent RNG stream derived from the seed with
// rng.Split (stream o depends only on the seed and o), so the outer
// loop fans out across the worker pool and the estimate is
// bit-identical for every worker count — including workers=1. Repeated
// EV calls rebuild the same streams, so an estimate for a given T is
// reproducible across calls (and consistent within a greedy sweep,
// like maxpr.Cached keeps its inner evaluator).
type ShardedMonteCarlo struct {
	db    *model.DB
	dists []*dist.Discrete
	f     query.Function
	outer int
	inner int
	seed  uint64
}

// NewShardedMonteCarlo builds the parallel estimator.
func NewShardedMonteCarlo(db *model.DB, f query.Function, outer, inner int, seed uint64) (*ShardedMonteCarlo, error) {
	if db.Cov != nil {
		return nil, errors.New("ev: ShardedMonteCarlo requires independent values")
	}
	if outer <= 0 || inner <= 1 {
		return nil, fmt.Errorf("ev: need outer >= 1, inner >= 2; got %d/%d", outer, inner)
	}
	ds, err := db.Discretes()
	if err != nil {
		return nil, fmt.Errorf("ev: ShardedMonteCarlo: %w", err)
	}
	return &ShardedMonteCarlo{db: db, dists: ds, f: f, outer: outer, inner: inner, seed: seed}, nil
}

// EV implements Engine.
func (m *ShardedMonteCarlo) EV(T model.Set) float64 {
	v, err := m.EVCtx(context.Background(), T)
	if err != nil {
		panic(err) // Background is never cancelled; no other error exists
	}
	return v
}

// EVCtx estimates EV(T) with the outer samples sharded across the
// worker pool; the per-sample variances are reduced in sample order.
func (m *ShardedMonteCarlo) EVCtx(ctx context.Context, T model.Set) (float64, error) {
	n := m.db.N()
	rest := T.Complement(n)
	streams := parallel.Streams(rng.New(m.seed), m.outer)
	pool := newScratchPool(n)
	vars, err := parallel.Map(ctx, m.outer, func(worker, o int) (float64, error) {
		x := pool.get(worker).buf(n) // every slot is drawn before Eval reads it
		r := streams[o]
		for _, i := range T {
			x[i] = m.dists[i].Sample(r)
		}
		var innerAcc numeric.Welford
		for in := 0; in < m.inner; in++ {
			for _, i := range rest {
				x[i] = m.dists[i].Sample(r)
			}
			innerAcc.Add(m.f.Eval(x))
		}
		return innerAcc.SampleVar(), nil
	})
	if err != nil {
		return 0, err
	}
	var outerAcc numeric.Welford
	for _, v := range vars {
		outerAcc.Add(v)
	}
	return outerAcc.Mean(), nil
}
