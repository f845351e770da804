package ev

import (
	"strconv"
	"sync"

	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/query"
)

// SharedEVCache memoizes per-term variances and per-pair covariances
// across GroupEngines compiled over the SAME *model.DB, keyed by the
// terms' canonical signatures (query.Term.Sig) plus the cleaned-mask.
// It is the cross-claim amortization behind bulk triage: claims over
// one dataset that share terms (duplicity indicators anchored to the
// same reference, say) pay for each term/pair enumeration once per
// batch instead of once per claim.
//
// Sharing is exact-reuse only, so it cannot move a bit: a cached value
// is the output of the very same enumeration (same variables in the
// same declared order, same parameters, same distributions) that a
// cache-missing engine would run itself. Pair entries are keyed by the
// ORDERED signature pair (term k first) — pairEV groups its float
// products around the k-side value, so a (k,l)-swapped pair is the
// same real number but not necessarily the same float64, and it must
// recompute rather than share.
//
// A SharedEVCache must never be used with engines over different
// databases or discretizations: keys do not include the distributions,
// that invariant is the caller's (core.TriageContext's) job.
//
// All methods are safe for concurrent use. Lock ordering: engines
// never hold their own mu while taking the cache's (and vice versa),
// so engines sharing a cache cannot deadlock.
type SharedEVCache struct {
	mu    sync.Mutex
	terms map[string]float64
	pairs map[string]float64

	hits, misses uint64
}

// NewSharedEVCache returns an empty cache ready to hand to
// NewGroupEngineShared.
func NewSharedEVCache() *SharedEVCache {
	return &SharedEVCache{
		terms: make(map[string]float64),
		pairs: make(map[string]float64),
	}
}

// Stats reports lifetime lookup outcomes (a lookup for an unsigned or
// uncacheable term counts as neither).
func (c *SharedEVCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of resident term and pair entries.
func (c *SharedEVCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.terms) + len(c.pairs)
}

// sharedKey appends the cleaned-mask to a signature. The unit
// separator cannot occur inside signatures (decimal ints, hex floats,
// '|' and ',' only), so keys are unambiguous.
func sharedKey(sig string, mask uint64) string {
	return sig + "\x1f" + strconv.FormatUint(mask, 16)
}

// table returns the pair map (pair) or the term map.
func (c *SharedEVCache) table(pair bool) map[string]float64 {
	if pair {
		return c.pairs
	}
	return c.terms
}

// splitShared partitions cache misses into values served from the
// shared cache (written into vals) and the remainder to compute. sig
// returns the signature for miss index i ("" = unshareable).
func (c *SharedEVCache) splitShared(m map[string]float64, misses []evMiss, vals []float64, sig func(i int) string) (compute []evMiss) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, miss := range misses {
		if s := sig(miss.i); miss.cacheable && s != "" {
			if v, ok := m[sharedKey(s, miss.mask)]; ok {
				vals[miss.i] = v
				c.hits++
				continue
			}
			c.misses++
		}
		compute = append(compute, miss)
	}
	return compute
}

// publish stores freshly computed shareable values.
func (c *SharedEVCache) publish(m map[string]float64, computed []evMiss, vals []float64, sig func(i int) string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, miss := range computed {
		if s := sig(miss.i); miss.cacheable && s != "" {
			m[sharedKey(s, miss.mask)] = vals[miss.i]
		}
	}
}

// NewGroupEngineShared is NewGroupEngine with a cross-engine result
// cache attached. Engines sharing a cache MUST be built over the same
// database value (same objects, same discretization); see the
// SharedEVCache contract.
func NewGroupEngineShared(db *model.DB, g *query.GroupSum, shared *SharedEVCache) (*GroupEngine, error) {
	e, err := NewGroupEngine(db, g)
	if err != nil {
		return nil, err
	}
	e.shared = shared
	return e, nil
}
