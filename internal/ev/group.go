package ev

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/parallel"
	"github.com/factcheck/cleansel/internal/query"
)

// GroupEngine computes EV(T) exactly for query functions of the form
// f(X) = c + Σ_k g_k(X_{R_k}) over mutually independent discrete values —
// the structure of the bias/dup/frag claim-quality measures (Theorem 3.8).
//
// Under independence,
//
//	Var[f | X_T = t] = Σ_k Var[g_k | t] + 2·Σ_{k<l overlapping} Cov[g_k, g_l | t],
//
// and each term only involves the objects its claims reference, so the
// expectation over cleaning outcomes V_T factorizes per term/pair. The
// work per term is the product of the referenced supports (V^W and V^3W in
// the paper's notation), never the full joint.
type GroupEngine struct {
	db    *model.DB
	dists []*dist.Discrete
	g     *query.GroupSum

	terms []termInfo
	pairs []pairInfo

	varTerms [][]int // object id -> indices into terms
	varPairs [][]int // object id -> indices into pairs

	// neighbors[o] lists, ascending, the objects other than o that share
	// a term or an overlapping pair with o (State.Affected). Built on the
	// first Affected call: engines that only answer EV never need it.
	neighborsOnce sync.Once
	neighbors     [][]int

	// Memoization for from-scratch EV calls and State re-scores: a
	// term's contribution only depends on which of ITS OWN variables are
	// cleaned, so it is cached by that local bitmask. Selectors that
	// evaluate EV on many related subsets (Best, OPT, the adaptive
	// greedy) and the lazy greedy's refreshes hit these caches heavily.
	// mu guards both caches: EV may be called from concurrent sweep
	// points, and misses are computed on the parallel worker pool.
	// Cached values are exact, so which goroutine fills an entry first
	// never changes a result.
	mu        sync.Mutex
	termCache []map[uint64]float64
	pairCache []map[uint64]float64

	// shared, when non-nil, is a second cache tier consulted after the
	// local one, keyed by term signatures so engines compiled from
	// different claims over the same database reuse each other's
	// enumerations (see SharedEVCache).
	shared *SharedEVCache
}

type termInfo struct {
	vars []int
	eval func([]float64) float64
	sig  string // canonical signature ("" = unshareable)
}

type pairInfo struct {
	k, l   int
	shared []int  // R_k ∩ R_l (non-empty)
	onlyK  []int  // R_k \ shared
	onlyL  []int  // R_l \ shared
	union  []int  // R_k ∪ R_l
	sig    string // ordered sig(k)+sig(l) ("" = unshareable)
	// slots[i] places union[i] in pairEV's evaluation buffer — term
	// k's values, then term l's, then a sink slot — as its slot in
	// term k's values (onlyL: term l's) and, for a shared variable,
	// its slot in term l's values (else the sink).
	slots [][2]int
}

// NewGroupEngine validates the model (independent, discrete) and indexes
// the term/pair structure.
func NewGroupEngine(db *model.DB, g *query.GroupSum) (*GroupEngine, error) {
	if db.Cov != nil {
		return nil, errors.New("ev: GroupEngine requires independent values")
	}
	ds, err := db.Discretes()
	if err != nil {
		return nil, fmt.Errorf("ev: GroupEngine: %w", err)
	}
	e := &GroupEngine{
		db:       db,
		dists:    ds,
		g:        g,
		varTerms: make([][]int, db.N()),
		varPairs: make([][]int, db.N()),
	}
	for _, t := range g.Terms {
		vars := append([]int(nil), t.Vars...)
		sort.Ints(vars)
		for i := 1; i < len(vars); i++ {
			if vars[i] == vars[i-1] {
				return nil, fmt.Errorf("ev: term references object %d twice", vars[i])
			}
		}
		for _, v := range vars {
			if v < 0 || v >= db.N() {
				return nil, fmt.Errorf("ev: term references unknown object %d", v)
			}
		}
		// Terms must receive values in their declared order; keep the
		// original order for evaluation but track sorted vars for set math.
		e.terms = append(e.terms, termInfo{vars: t.Vars, eval: t.Eval, sig: t.Sig})
	}
	// Index terms per object and find overlapping pairs.
	for k, t := range e.terms {
		for _, v := range t.vars {
			e.varTerms[v] = append(e.varTerms[v], k)
		}
	}
	seen := map[[2]int]bool{}
	for _, ks := range e.varTerms {
		for i := 0; i < len(ks); i++ {
			for j := i + 1; j < len(ks); j++ {
				key := [2]int{ks[i], ks[j]}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				if seen[key] {
					continue
				}
				seen[key] = true
				e.pairs = append(e.pairs, e.buildPair(key[0], key[1]))
			}
		}
	}
	sort.Slice(e.pairs, func(i, j int) bool {
		if e.pairs[i].k != e.pairs[j].k {
			return e.pairs[i].k < e.pairs[j].k
		}
		return e.pairs[i].l < e.pairs[j].l
	})
	for pi, p := range e.pairs {
		for _, v := range p.union {
			e.varPairs[v] = append(e.varPairs[v], pi)
		}
	}
	e.termCache = make([]map[uint64]float64, len(e.terms))
	e.pairCache = make([]map[uint64]float64, len(e.pairs))
	return e, nil
}

// localMask packs which of vars are cleaned (cleaned[v], or v == extra)
// into a bitmask; ok is false when the term is too wide to cache (> 64
// variables).
func localMask(vars []int, cleaned []bool, extra int) (uint64, bool) {
	if len(vars) > 64 {
		return 0, false
	}
	var m uint64
	for i, v := range vars {
		if isClean(cleaned, extra, v) {
			m |= 1 << uint(i)
		}
	}
	return m, true
}

// isClean reports whether object v counts as cleaned: it is in the
// cleaned mask, or it is the one extra object a pure re-score adds to
// the mask (-1 for none).
func isClean(cleaned []bool, extra, v int) bool { return v == extra || cleaned[v] }

func (e *GroupEngine) buildPair(k, l int) pairInfo {
	posK := map[int]int{}
	for i, v := range e.terms[k].vars {
		posK[v] = i
	}
	p := pairInfo{k: k, l: l}
	inShared := map[int]bool{}
	for _, v := range e.terms[l].vars {
		if _, ok := posK[v]; ok {
			p.shared = append(p.shared, v)
			inShared[v] = true
		}
	}
	for _, v := range e.terms[k].vars {
		if !inShared[v] {
			p.onlyK = append(p.onlyK, v)
		}
	}
	for _, v := range e.terms[l].vars {
		if !inShared[v] {
			p.onlyL = append(p.onlyL, v)
		}
	}
	p.union = append(p.union, p.shared...)
	p.union = append(p.union, p.onlyK...)
	p.union = append(p.union, p.onlyL...)
	sort.Ints(p.shared)
	sort.Ints(p.onlyK)
	sort.Ints(p.onlyL)
	sort.Ints(p.union)
	nk := len(e.terms[k].vars)
	sink := nk + len(e.terms[l].vars)
	posL := map[int]int{}
	for i, v := range e.terms[l].vars {
		posL[v] = nk + i
	}
	for _, v := range p.union {
		ik, inK := posK[v]
		il, inL := posL[v]
		switch {
		case inK && inL:
			p.slots = append(p.slots, [2]int{ik, il})
		case inK:
			p.slots = append(p.slots, [2]int{ik, sink})
		default:
			p.slots = append(p.slots, [2]int{il, sink})
		}
	}
	// Ordered, not sorted: pairEV groups its products around the k-side
	// term, so only a pair with the same (k,l) role assignment is
	// guaranteed the same float64 (see the SharedEVCache contract).
	if sk, sl := e.terms[k].sig, e.terms[l].sig; sk != "" && sl != "" {
		p.sig = sk + "\x1e" + sl
	}
	return p
}

// NumPairs returns the number of overlapping term pairs (0 when all claim
// windows are disjoint).
func (e *GroupEngine) NumPairs() int { return len(e.pairs) }

// termEV returns Σ_a Pr[a]·Var[g_k | X_{R_k∩T} = a] for term k, where T
// is the cleaned mask plus the extra object (-1 for none), enumerating
// with the provided distributions. Two odometers walk the cleaned
// variables (outer) and the uncleaned ones (inner), each in declaration
// order, writing values straight into the term's evaluation buffer.
func (e *GroupEngine) termEV(dists []*dist.Discrete, k int, cleaned []bool, extra int, sc *evScratch) float64 {
	vars, eval := e.terms[k].vars, e.terms[k].eval
	sink := len(vars)
	vals := sc.buf(sink + 1)
	outer, inner := &sc.od[0], &sc.od[1]
	outer.reset(sink)
	inner.reset(sink)
	for i, v := range vars {
		if isClean(cleaned, extra, v) {
			outer.push(dists[v], i, sink)
		} else {
			inner.push(dists[v], i, sink)
		}
	}
	g := vals[:sink]
	var acc numeric.KahanAcc
	for ok := outer.start(vals); ok; ok = outer.next(vals) {
		var m1, m2 numeric.KahanAcc
		for in := inner.start(vals); in; in = inner.nextRow(vals) {
			base, d1, d2 := inner.row()
			for i, x1 := range d1.values {
				vals[d1.pos] = x1
				vals[d1.pos2] = x1
				p1 := base * d1.probs[i]
				for j, x := range d2.values {
					vals[d2.pos] = x
					vals[d2.pos2] = x
					p := p1 * d2.probs[j]
					v := eval(g)
					m1.Add(p * v)
					m2.Add(p * v * v)
				}
			}
		}
		mean := m1.Value()
		variance := m2.Value() - mean*mean
		if variance < 0 {
			variance = 0
		}
		acc.Add(outer.prob() * variance)
	}
	return acc.Value()
}

// termMean returns E[g_k] under dists.
func (e *GroupEngine) termMean(dists []*dist.Discrete, k int, sc *evScratch) float64 {
	vars, eval := e.terms[k].vars, e.terms[k].eval
	sink := len(vars)
	vals := sc.buf(sink + 1)
	all := &sc.od[0]
	all.reset(sink)
	for i, v := range vars {
		all.push(dists[v], i, sink)
	}
	return expect(all, vals, eval, vals[:sink])
}

// expect returns Σ p·g over the odometer's assignments — E[g] when its
// digits are all of g's free variables — Kahan-summed in visit order.
// g is the view of vals the term function reads.
func expect(o *odometer, vals []float64, eval func([]float64) float64, g []float64) float64 {
	var m numeric.KahanAcc
	for ok := o.start(vals); ok; ok = o.nextRow(vals) {
		base, d1, d2 := o.row()
		for i, x1 := range d1.values {
			vals[d1.pos] = x1
			vals[d1.pos2] = x1
			p1 := base * d1.probs[i]
			for j, x := range d2.values {
				vals[d2.pos] = x
				vals[d2.pos2] = x
				m.Add(p1 * d2.probs[j] * eval(g))
			}
		}
	}
	return m.Value()
}

// pairEV returns Σ_a Pr[a]·Cov[g_k, g_l | X_{union∩T} = a] for an
// overlapping pair (T as in termEV), exploiting that given the shared
// variables the two terms are conditionally independent:
//
//	E[g_k·g_l | a] = Σ_s Pr[s]·E[g_k | a,s]·E[g_l | a,s]
//
// where s ranges over the uncleaned shared variables. Four odometers —
// cleaned, uncleaned shared, uncleaned k-only, uncleaned l-only — each
// walk their variables in ascending object order.
func (e *GroupEngine) pairEV(dists []*dist.Discrete, pi int, cleaned []bool, extra int, sc *evScratch) float64 {
	p := &e.pairs[pi]
	nk, nl := len(e.terms[p.k].vars), len(e.terms[p.l].vars)
	vals := sc.buf(nk + nl + 1)
	a, s, bk, bl := &sc.od[0], &sc.od[1], &sc.od[2], &sc.od[3]
	sink := nk + nl
	a.reset(sink)
	s.reset(sink)
	bk.reset(sink)
	bl.reset(sink)
	for i, v := range p.union {
		pos, pos2 := p.slots[i][0], p.slots[i][1]
		switch {
		case isClean(cleaned, extra, v):
			a.push(dists[v], pos, pos2)
		case pos2 != sink: // shared
			s.push(dists[v], pos, pos2)
		case pos < nk: // k only
			bk.push(dists[v], pos, pos2)
		default: // l only
			bl.push(dists[v], pos, pos2)
		}
	}
	gk, gl := vals[:nk], vals[nk:nk+nl]
	evalK, evalL := e.terms[p.k].eval, e.terms[p.l].eval
	var acc numeric.KahanAcc
	for ok := a.start(vals); ok; ok = a.next(vals) {
		var ekl, ek, el numeric.KahanAcc
		for oks := s.start(vals); oks; oks = s.next(vals) {
			ps := s.prob()
			vk, vl := expect(bk, vals, evalK, gk), expect(bl, vals, evalL, gl)
			ekl.Add(ps * vk * vl)
			ek.Add(ps * vk)
			el.Add(ps * vl)
		}
		cov := ekl.Value() - ek.Value()*el.Value()
		acc.Add(a.prob() * cov)
	}
	return acc.Value()
}

// evScratch is the per-worker workspace of the enumeration paths: the
// odometers and the evaluation buffer they write into, the re-score
// rows of State, and the per-object moment workspace of the
// singleton-benefit pass. Work items fully overwrite the slots they
// read, so reusing a workspace across items never changes a result.
type evScratch struct {
	od      [4]odometer
	vals    []float64
	termNew []float64
	pairNew []float64
	// Flattened singleton-benefit workspace, indexed by object id and
	// allocated on first use: conditional first/second moment rows
	// (grown to the object's support size) and one Kahan accumulator
	// per object.
	n      int
	m1, m2 [][]float64
	acc    []numeric.KahanAcc
}

func newEvScratch(n int) *evScratch { return &evScratch{n: n} }

// buf returns the evaluation buffer grown to size.
func (sc *evScratch) buf(size int) []float64 {
	sc.vals = growFloats(sc.vals, size)
	return sc.vals
}

// objectRows returns the singleton pass's object-indexed workspace.
func (sc *evScratch) objectRows() (m1, m2 [][]float64, acc []numeric.KahanAcc) {
	if sc.acc == nil {
		sc.m1 = make([][]float64, sc.n)
		sc.m2 = make([][]float64, sc.n)
		sc.acc = make([]numeric.KahanAcc, sc.n)
	}
	return sc.m1, sc.m2, sc.acc
}

// growFloats returns s resized to n, reallocating only when too small.
// Contents are stale until overwritten.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// momentRow returns row v of m grown to size. Contents are stale until
// overwritten — every caller zeroes or assigns before reading.
func momentRow(m [][]float64, v, size int) []float64 {
	m[v] = growFloats(m[v], size)
	return m[v]
}

// scratchPool lazily allocates one workspace per parallel worker. The
// pool is sized for the worker count at creation; each slot is owned
// by exactly one worker goroutine at a time.
type scratchPool struct {
	n int
	s []*evScratch
}

func newScratchPool(n int) *scratchPool {
	return &scratchPool{n: n, s: make([]*evScratch, parallel.Workers())}
}

func (p *scratchPool) get(worker int) *evScratch {
	if worker < 0 || worker >= len(p.s) {
		// The slot slice was sized for the worker count at pool
		// creation; a wider pool at execution time (CLEANSEL_WORKERS
		// re-read between construction and run, or a caller-supplied
		// wider pool) would index past it. Hand such a spill worker a
		// fresh unpooled workspace instead: growing p.s here would race
		// with the other workers, and scratch contents never affect
		// results, so the only cost is a lost reuse.
		return newEvScratch(p.n)
	}
	if p.s[worker] == nil {
		p.s[worker] = newEvScratch(p.n)
	}
	return p.s[worker]
}

// evMiss is one uncached term/pair contribution to an EV call.
type evMiss struct {
	i         int // term or pair index
	mask      uint64
	cacheable bool
}

// The engine memoizes two families of contributions alike: term
// variances and overlapping-pair covariances. A contribution depends
// only on which of its own variables are cleaned, so it is cached by
// that local mask — over the term's variables in declaration order, or
// the pair's union ascending. The helpers below select a family.
const (
	ofTerms = false
	ofPairs = true
)

func (e *GroupEngine) familySize(pair bool) int {
	if pair {
		return len(e.pairs)
	}
	return len(e.terms)
}

func (e *GroupEngine) familyCache(pair bool) []map[uint64]float64 {
	if pair {
		return e.pairCache
	}
	return e.termCache
}

// maskOf is contribution i's cache key under the cleaned mask plus
// extra; ok is false when it is too wide to cache.
func (e *GroupEngine) maskOf(pair bool, i int, cleaned []bool, extra int) (uint64, bool) {
	if pair {
		return localMask(e.pairs[i].union, cleaned, extra)
	}
	return localMask(e.terms[i].vars, cleaned, extra)
}

func (e *GroupEngine) sigOf(pair bool, i int) string {
	if pair {
		return e.pairs[i].sig
	}
	return e.terms[i].sig
}

// contrib enumerates contribution i: termEV or pairEV.
func (e *GroupEngine) contrib(pair bool, dists []*dist.Discrete, i int, cleaned []bool, extra int, sc *evScratch) float64 {
	if pair {
		return e.pairEV(dists, i, cleaned, extra, sc)
	}
	return e.termEV(dists, i, cleaned, extra, sc)
}

// put stores v under (i, mask); the caller holds e.mu.
func put(cache []map[uint64]float64, i int, mask uint64, v float64) {
	if cache[i] == nil {
		cache[i] = make(map[uint64]float64)
	}
	cache[i][mask] = v
}

// memo is contrib with the engine's dists through the cache: a hit
// returns the stored value, a miss computes and stores it. Every stored
// value is the output of this same enumeration, so a hit is exact. Safe
// for concurrent use.
func (e *GroupEngine) memo(pair bool, i int, cleaned []bool, extra int, sc *evScratch) (v float64, hit bool) {
	cache := e.familyCache(pair)
	mask, ok := e.maskOf(pair, i, cleaned, extra)
	if ok {
		e.mu.Lock()
		v, hit = cache[i][mask]
		e.mu.Unlock()
		if hit {
			return v, true
		}
	}
	v = e.contrib(pair, e.dists, i, cleaned, extra, sc)
	if ok {
		e.mu.Lock()
		put(cache, i, mask, v)
		e.mu.Unlock()
	}
	return v, false
}

// values returns every contribution of one family for the cleaned mask,
// serving hits from the cache and computing misses on the worker pool.
func (e *GroupEngine) values(ctx context.Context, cleaned []bool, pair bool) ([]float64, error) {
	n, cache := e.familySize(pair), e.familyCache(pair)
	vals := make([]float64, n)
	var misses []evMiss
	e.mu.Lock()
	for i := 0; i < n; i++ {
		mask, ok := e.maskOf(pair, i, cleaned, -1)
		if ok {
			if v, hit := cache[i][mask]; hit {
				vals[i] = v
				continue
			}
			misses = append(misses, evMiss{i: i, mask: mask, cacheable: true})
			continue
		}
		misses = append(misses, evMiss{i: i})
	}
	e.mu.Unlock()
	// Write-only trace ticks: the recorder never feeds back into the
	// computation, so recorded and unrecorded runs are bit-identical.
	// Pairs tick only when the query has any.
	if rec := obs.FromContext(ctx); rec != nil && (!pair || n > 0) {
		rec.Add("ev_cache_hits", int64(n-len(misses)))
		rec.Add("ev_cache_misses", int64(len(misses)))
	}
	if len(misses) == 0 {
		return vals, nil
	}
	// Second tier: values another engine over the same database already
	// enumerated for a signature-identical term or pair.
	compute := misses
	sig := func(i int) string { return e.sigOf(pair, i) }
	if e.shared != nil {
		compute = e.shared.splitShared(e.shared.table(pair), misses, vals, sig)
		if rec := obs.FromContext(ctx); rec != nil {
			rec.Add("ev_shared_hits", int64(len(misses)-len(compute)))
			rec.Add("ev_shared_misses", int64(len(compute)))
		}
	}
	if len(compute) > 0 {
		pool := newScratchPool(e.db.N())
		if err := parallel.For(ctx, len(compute), func(worker, j int) error {
			m := compute[j]
			vals[m.i] = e.contrib(pair, e.dists, m.i, cleaned, -1, pool.get(worker))
			return nil
		}); err != nil {
			return nil, err
		}
	}
	e.mu.Lock()
	for _, m := range misses {
		if m.cacheable {
			put(cache, m.i, m.mask, vals[m.i])
		}
	}
	e.mu.Unlock()
	if e.shared != nil && len(compute) > 0 {
		e.shared.publish(e.shared.table(pair), compute, vals, sig)
	}
	return vals, nil
}

// EV computes the objective from scratch for the subset T, memoizing each
// term's contribution by the cleaned-mask restricted to its variables.
// Safe for concurrent use; uncached contributions are computed on the
// parallel worker pool.
func (e *GroupEngine) EV(T model.Set) float64 {
	v, err := e.EVCtx(context.Background(), T)
	if err != nil {
		// Background is never cancelled and no other error exists on
		// this path; keep the legacy no-error signature honest.
		panic(err)
	}
	return v
}

// EVCtx is EV with cooperative cancellation: it returns the context's
// error as soon as the current term/pair contribution finishes. The
// summation order is fixed (terms ascending, then pairs ascending), so
// the value is bit-identical for every worker count.
func (e *GroupEngine) EVCtx(ctx context.Context, T model.Set) (float64, error) {
	obs.FromContext(ctx).Add("ev_calls", 1)
	cleaned := make([]bool, e.db.N())
	for _, i := range T {
		cleaned[i] = true
	}
	termVals, err := e.values(ctx, cleaned, ofTerms)
	if err != nil {
		return 0, err
	}
	pairVals, err := e.values(ctx, cleaned, ofPairs)
	if err != nil {
		return 0, err
	}
	var acc numeric.KahanAcc
	for _, v := range termVals {
		acc.Add(v)
	}
	for _, v := range pairVals {
		acc.Add(2 * v)
	}
	v := acc.Value()
	if v < 0 {
		v = 0
	}
	return v, nil
}

// Variance returns EV(∅) = Var[f(X)].
func (e *GroupEngine) Variance() float64 { return e.EV(nil) }

// CondMoments returns the conditional mean and variance of f(X) given
// X_i = values[i] for every i with known[i] — the posterior a fact-checker
// holds after cleaning reveals true values (used by the §4.3 "in action"
// experiments). The conditioning is implemented by substituting point
// masses for the known objects.
func (e *GroupEngine) CondMoments(values []float64, known []bool) (mean, variance float64) {
	ds := make([]*dist.Discrete, len(e.dists))
	copy(ds, e.dists)
	for i, k := range known {
		if k {
			ds[i] = dist.PointMass(values[i])
		}
	}
	sc := newEvScratch(e.db.N())
	noClean := make([]bool, e.db.N())
	var mAcc, vAcc numeric.KahanAcc
	mAcc.Add(e.g.Const)
	for k := range e.terms {
		mAcc.Add(e.termMean(ds, k, sc))
		vAcc.Add(e.termEV(ds, k, noClean, -1, sc))
	}
	for pi := range e.pairs {
		vAcc.Add(2 * e.pairEV(ds, pi, noClean, -1, sc))
	}
	variance = vAcc.Value()
	if variance < 0 {
		variance = 0
	}
	return mAcc.Value(), variance
}

// State tracks EV(T) incrementally while a greedy algorithm grows T.
// Cleaning an object only dirties the terms and pairs that reference it,
// so deltas cost work proportional to the object's local claim structure
// rather than the whole query. Re-scores go through the engine's
// per-(term, local mask) cache, so a term whose variables did not change
// since its last re-score is a lookup, and Clean(o) reuses what the last
// Delta(o) computed. A State is not safe for concurrent use; DeltasCtx
// is its parallel entry point.
type State struct {
	e        *GroupEngine
	cleaned  []bool
	termEV   []float64
	pairEV   []float64
	total    float64
	pool     *scratchPool
	memoHits int64
}

// NewState returns the incremental state at T = ∅.
func (e *GroupEngine) NewState() *State {
	s, err := e.NewStateCtx(context.Background())
	if err != nil {
		panic(err) // Background is never cancelled; no other error exists
	}
	return s
}

// NewStateCtx builds the incremental state at T = ∅, computing the
// initial per-term variances and per-pair covariances on the parallel
// worker pool. The reduction runs in index order, so the state is
// bit-identical for every worker count.
func (e *GroupEngine) NewStateCtx(ctx context.Context) (*State, error) {
	defer obs.FromContext(ctx).Span("ev_state_init")()
	s := &State{
		e:       e,
		cleaned: make([]bool, e.db.N()),
		pool:    newScratchPool(e.db.N()),
	}
	termEV, err := parallel.Map(ctx, len(e.terms), func(worker, k int) (float64, error) {
		return e.termEV(e.dists, k, s.cleaned, -1, s.pool.get(worker)), nil
	})
	if err != nil {
		return nil, err
	}
	pairEV, err := parallel.Map(ctx, len(e.pairs), func(worker, pi int) (float64, error) {
		return e.pairEV(e.dists, pi, s.cleaned, -1, s.pool.get(worker)), nil
	})
	if err != nil {
		return nil, err
	}
	s.termEV, s.pairEV = termEV, pairEV
	var acc numeric.KahanAcc
	for k := range s.termEV {
		acc.Add(s.termEV[k])
	}
	for pi := range s.pairEV {
		acc.Add(2 * s.pairEV[pi])
	}
	s.total = acc.Value()
	return s, nil
}

// EV returns the current objective value EV(T).
func (s *State) EV() float64 {
	if s.total < 0 {
		return 0
	}
	return s.total
}

// Cleaned reports whether object o is already in T.
func (s *State) Cleaned(o int) bool { return s.cleaned[o] }

// MemoHits returns how many term and pair values the State's re-scores
// (Delta, DeltasCtx, Clean) have served from the engine's cache.
func (s *State) MemoHits() int64 { return s.memoHits }

// Delta returns EV(T ∪ {o}) − EV(T) without committing (≤ 0 by
// Lemma 3.4). Cleaning an already-cleaned object has delta 0.
func (s *State) Delta(o int) float64 {
	if s.cleaned[o] {
		return 0
	}
	delta, hits := s.rescore(s.pool.get(0), o)
	s.memoHits += int64(hits)
	return delta
}

// DeltasCtx returns Delta(o) for every o in objs, re-scoring them on the
// parallel worker pool. Each re-score reads the state without changing
// it, and the results come back in objs order, so they are bit-identical
// to sequential Delta calls for every worker count.
func (s *State) DeltasCtx(ctx context.Context, objs []int) ([]float64, error) {
	deltas := make([]float64, len(objs))
	hits := make([]int, len(objs))
	if err := parallel.For(ctx, len(objs), func(worker, i int) error {
		if o := objs[i]; !s.cleaned[o] {
			deltas[i], hits[i] = s.rescore(s.pool.get(worker), o)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, h := range hits {
		s.memoHits += int64(h)
	}
	return deltas, nil
}

// Clean commits object o into T and returns the achieved delta.
func (s *State) Clean(o int) float64 {
	if s.cleaned[o] {
		return 0
	}
	sc := s.pool.get(0)
	delta, hits := s.rescore(sc, o)
	s.memoHits += int64(hits)
	s.cleaned[o] = true
	for i, k := range s.e.varTerms[o] {
		s.termEV[k] = sc.termNew[i]
	}
	for i, pi := range s.e.varPairs[o] {
		s.pairEV[pi] = sc.pairNew[i]
	}
	s.total += delta
	return delta
}

// rescore evaluates o's terms and pairs with o added to the cleaned set,
// leaving the new values in sc.termNew/sc.pairNew (in varTerms[o] and
// varPairs[o] order), and returns the objective delta and the number of
// values served from the cache. It only reads the state.
func (s *State) rescore(sc *evScratch, o int) (delta float64, hits int) {
	e := s.e
	ts, ps := e.varTerms[o], e.varPairs[o]
	sc.termNew = growFloats(sc.termNew, len(ts))
	sc.pairNew = growFloats(sc.pairNew, len(ps))
	var acc numeric.KahanAcc
	for i, k := range ts {
		nv, hit := e.memo(ofTerms, k, s.cleaned, o, sc)
		if hit {
			hits++
		}
		sc.termNew[i] = nv
		acc.Add(nv - s.termEV[k])
	}
	for i, pi := range ps {
		nv, hit := e.memo(ofPairs, pi, s.cleaned, o, sc)
		if hit {
			hits++
		}
		sc.pairNew[i] = nv
		acc.Add(2 * (nv - s.pairEV[pi]))
	}
	return acc.Value(), hits
}

// SingletonBenefits returns, for every object o, the benefit
// EV(T) − EV(T ∪ {o}) of cleaning it next (0 for objects already in T).
// It computes all term contributions in a single enumeration pass per term
// — grouping the joint sweep by each candidate variable's value — which is
// a factor-W speedup over calling Delta per object and the reason large
// Figure-10 instances initialize in seconds.
func (s *State) SingletonBenefits() []float64 {
	b, err := s.SingletonBenefitsCtx(context.Background())
	if err != nil {
		panic(err) // Background is never cancelled; no other error exists
	}
	return b
}

// termContrib is one term's benefit contribution: deltas[j] is the
// expected-variance drop cleaning vars[j] would cause in this term.
type termContrib struct {
	vars   []int
	deltas []float64
}

// SingletonBenefitsCtx is SingletonBenefits with the per-term passes
// and the per-object pair re-scores fanned out over the parallel worker
// pool and cooperative cancellation between work items. Contributions
// are reduced in term order (and within a term in declaration order),
// then pair by pair in varPairs order, exactly as the sequential loop
// accumulates them, so the result is bit-identical for every worker
// count.
func (s *State) SingletonBenefitsCtx(ctx context.Context) ([]float64, error) {
	defer obs.FromContext(ctx).Span("singleton_benefits")()
	e := s.e
	n := e.db.N()
	benefits := make([]float64, n)
	// Term contributions, one pass per term.
	contribs, err := parallel.Map(ctx, len(e.terms), func(worker, k int) (termContrib, error) {
		vars, eval := e.terms[k].vars, e.terms[k].eval
		sc := s.pool.get(worker)
		sink := len(vars)
		vals := sc.buf(sink + 1)
		outer, inner := &sc.od[0], &sc.od[1]
		outer.reset(sink)
		inner.reset(sink)
		var b []int // uncleaned vars, in declaration order = inner digit order
		for i, v := range vars {
			if s.cleaned[v] {
				outer.push(e.dists[v], i, sink)
			} else {
				inner.push(e.dists[v], i, sink)
				b = append(b, v)
			}
		}
		if len(b) == 0 {
			return termContrib{}, nil // fully cleaned term: no one can improve it
		}
		// evAfter[v] accumulates Σ_a p_a Σ_val p_val·Var[g | a, X_v=val].
		// The accumulators and moment rows live flat on the worker
		// scratch, indexed by object id.
		m1, m2, evAfter := sc.objectRows()
		for _, v := range b {
			evAfter[v] = numeric.KahanAcc{}
			momentRow(m1, v, e.dists[v].Size())
			momentRow(m2, v, e.dists[v].Size())
		}
		g := vals[:sink]
		for ok := outer.start(vals); ok; ok = outer.next(vals) {
			pa := outer.prob()
			for _, v := range b {
				r1, r2 := m1[v], m2[v]
				for j := range r1 {
					r1[j] = 0
					r2[j] = 0
				}
			}
			// The sweep keeps the row digits' j current, so every
			// variable's support index is read off its digit (b[i] is
			// digit i; padding digits follow b).
			for in := inner.start(vals); in; in = inner.nextRow(vals) {
				base, d1, d2 := inner.row()
				for i1, x1 := range d1.values {
					d1.j = i1
					vals[d1.pos] = x1
					vals[d1.pos2] = x1
					p1 := base * d1.probs[i1]
					for i2, x := range d2.values {
						d2.j = i2
						vals[d2.pos] = x
						vals[d2.pos2] = x
						pb := p1 * d2.probs[i2]
						gv := eval(g)
						for i, v := range b {
							j := inner.digits[i].j
							m1[v][j] += pb * gv
							m2[v][j] += pb * gv * gv
						}
					}
				}
			}
			for _, v := range b {
				d := e.dists[v]
				r1, r2 := m1[v], m2[v]
				for j, pv := range d.Probs {
					if pv == 0 {
						continue
					}
					mean := r1[j] / pv
					variance := r2[j]/pv - mean*mean
					if variance < 0 {
						variance = 0
					}
					evAfter[v].Add(pa * pv * variance)
				}
			}
		}
		deltas := make([]float64, len(b))
		for j, v := range b {
			deltas[j] = s.termEV[k] - evAfter[v].Value()
		}
		return termContrib{vars: b, deltas: deltas}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range contribs {
		for j, v := range c.vars {
			benefits[v] += c.deltas[j]
		}
	}
	// Pair contributions: each uncleaned object in some pair re-scores
	// its pairs with itself added to the mask (the values Delta would
	// compute, so they also fill the engine's cache).
	if len(e.pairs) > 0 {
		var objs []int
		seen := make([]bool, n)
		for _, p := range e.pairs {
			for _, v := range p.union {
				if !seen[v] && !s.cleaned[v] {
					seen[v] = true
					objs = append(objs, v)
				}
			}
		}
		rows, err := parallel.Map(ctx, len(objs), func(worker, i int) ([]float64, error) {
			v := objs[i]
			sc := s.pool.get(worker)
			row := make([]float64, len(e.varPairs[v]))
			for j, pi := range e.varPairs[v] {
				row[j], _ = e.memo(ofPairs, pi, s.cleaned, v, sc)
			}
			return row, nil
		})
		if err != nil {
			return nil, err
		}
		for i, v := range objs {
			for j, pi := range e.varPairs[v] {
				benefits[v] += 2 * (s.pairEV[pi] - rows[i][j])
			}
		}
	}
	for i := range benefits {
		if s.cleaned[i] || benefits[i] < 0 {
			benefits[i] = 0
		}
	}
	return benefits, nil
}

// Affected returns the object IDs (other than o itself), ascending, whose
// Delta may change when o is cleaned: every object sharing a term or an
// overlapping pair with o. Lazy-greedy selectors use it to invalidate
// cached benefits. The slice is the engine's own; callers must not
// modify it.
func (s *State) Affected(o int) []int {
	s.e.neighborsOnce.Do(s.e.buildNeighbors)
	return s.e.neighbors[o]
}

// buildNeighbors fills e.neighbors (see Affected).
func (e *GroupEngine) buildNeighbors() {
	n := e.db.N()
	e.neighbors = make([][]int, n)
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}
	for o := 0; o < n; o++ {
		stamp[o] = o // o is never its own neighbour
		var out []int
		add := func(vs []int) {
			for _, v := range vs {
				if stamp[v] != o {
					stamp[v] = o
					out = append(out, v)
				}
			}
		}
		for _, k := range e.varTerms[o] {
			add(e.terms[k].vars)
		}
		for _, pi := range e.varPairs[o] {
			add(e.pairs[pi].union)
		}
		sort.Ints(out)
		e.neighbors[o] = out
	}
}
