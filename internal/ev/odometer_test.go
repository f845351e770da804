package ev

import (
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// The recursive closure enumeration the odometer replaced, kept as the
// oracle of FuzzGroupTermEV: the term, pair, re-score and singleton
// paths below are the pre-odometer engine, line for line, so the fuzz
// target pins the odometer to their float64 bits.

// enumerateIdx is enumerate plus support-index tracking: idx[v] holds the
// current support position of each enumerated var when visit runs.
func enumerateIdx(dists []*dist.Discrete, vars []int, x []float64, idx []int, visit func(p float64)) {
	var rec func(i int, p float64)
	rec = func(i int, p float64) {
		if i == len(vars) {
			visit(p)
			return
		}
		d := dists[vars[i]]
		for j, v := range d.Values {
			x[vars[i]] = v
			idx[vars[i]] = j
			rec(i+1, p*d.Probs[j])
		}
	}
	rec(0, 1)
}

// refSplit partitions vars into (cleaned, uncleaned) under the mask.
func refSplit(vars []int, cleaned []bool) (in, out []int) {
	for _, v := range vars {
		if cleaned[v] {
			in = append(in, v)
		} else {
			out = append(out, v)
		}
	}
	return in, out
}

// refEvalTerm gathers the term's variable values from the scratch vector.
func refEvalTerm(e *GroupEngine, k int, x []float64) float64 {
	t := e.terms[k]
	buf := make([]float64, 0, len(t.vars))
	for _, v := range t.vars {
		buf = append(buf, x[v])
	}
	return t.eval(buf)
}

func refTermEV(e *GroupEngine, dists []*dist.Discrete, k int, cleaned []bool) float64 {
	x := make([]float64, len(dists))
	a, b := refSplit(e.terms[k].vars, cleaned)
	var acc numeric.KahanAcc
	enumerate(dists, a, x, func(pa float64) {
		var m1, m2 numeric.KahanAcc
		enumerate(dists, b, x, func(p float64) {
			v := refEvalTerm(e, k, x)
			m1.Add(p * v)
			m2.Add(p * v * v)
		})
		mean := m1.Value()
		variance := m2.Value() - mean*mean
		if variance < 0 {
			variance = 0
		}
		acc.Add(pa * variance)
	})
	return acc.Value()
}

func refPairEV(e *GroupEngine, dists []*dist.Discrete, pi int, cleaned []bool) float64 {
	x := make([]float64, len(dists))
	p := e.pairs[pi]
	a, _ := refSplit(p.union, cleaned)
	_, sharedU := refSplit(p.shared, cleaned)
	_, bk := refSplit(p.onlyK, cleaned)
	_, bl := refSplit(p.onlyL, cleaned)
	var acc numeric.KahanAcc
	enumerate(dists, a, x, func(pa float64) {
		var ekl, ek, el numeric.KahanAcc
		enumerate(dists, sharedU, x, func(ps float64) {
			var mk, ml numeric.KahanAcc
			enumerate(dists, bk, x, func(pb float64) {
				mk.Add(pb * refEvalTerm(e, p.k, x))
			})
			enumerate(dists, bl, x, func(pb float64) {
				ml.Add(pb * refEvalTerm(e, p.l, x))
			})
			vk, vl := mk.Value(), ml.Value()
			ekl.Add(ps * vk * vl)
			ek.Add(ps * vk)
			el.Add(ps * vl)
		})
		cov := ekl.Value() - ek.Value()*el.Value()
		acc.Add(pa * cov)
	})
	return acc.Value()
}

func refTermMean(e *GroupEngine, dists []*dist.Discrete, k int) float64 {
	x := make([]float64, len(dists))
	var m1 numeric.KahanAcc
	enumerate(dists, e.terms[k].vars, x, func(p float64) {
		m1.Add(p * refEvalTerm(e, k, x))
	})
	return m1.Value()
}

// refDelta is the pre-odometer State.recompute: o flipped into the
// cleaned mask in place, its terms and pairs re-enumerated.
func refDelta(s *State, o int) float64 {
	if s.cleaned[o] {
		return 0
	}
	cleaned := append([]bool(nil), s.cleaned...)
	cleaned[o] = true
	var acc numeric.KahanAcc
	for _, k := range s.e.varTerms[o] {
		acc.Add(refTermEV(s.e, s.e.dists, k, cleaned) - s.termEV[k])
	}
	for _, pi := range s.e.varPairs[o] {
		acc.Add(2 * (refPairEV(s.e, s.e.dists, pi, cleaned) - s.pairEV[pi]))
	}
	return acc.Value()
}

// refSingleton is the pre-odometer sequential SingletonBenefits.
func refSingleton(s *State) []float64 {
	e := s.e
	n := e.db.N()
	benefits := make([]float64, n)
	x := make([]float64, n)
	idx := make([]int, n)
	for k := range e.terms {
		a, b := refSplit(e.terms[k].vars, s.cleaned)
		if len(b) == 0 {
			continue
		}
		evAfter := map[int]*numeric.KahanAcc{}
		m1 := map[int][]float64{}
		m2 := map[int][]float64{}
		for _, v := range b {
			evAfter[v] = &numeric.KahanAcc{}
			m1[v] = make([]float64, e.dists[v].Size())
			m2[v] = make([]float64, e.dists[v].Size())
		}
		enumerate(e.dists, a, x, func(pa float64) {
			for _, v := range b {
				for j := range m1[v] {
					m1[v][j] = 0
					m2[v][j] = 0
				}
			}
			enumerateIdx(e.dists, b, x, idx, func(pb float64) {
				g := refEvalTerm(e, k, x)
				for _, v := range b {
					j := idx[v]
					m1[v][j] += pb * g
					m2[v][j] += pb * g * g
				}
			})
			for _, v := range b {
				for j, pv := range e.dists[v].Probs {
					if pv == 0 {
						continue
					}
					mean := m1[v][j] / pv
					variance := m2[v][j]/pv - mean*mean
					if variance < 0 {
						variance = 0
					}
					evAfter[v].Add(pa * pv * variance)
				}
			}
		})
		for _, v := range b {
			benefits[v] += s.termEV[k] - evAfter[v].Value()
		}
	}
	seen := map[int]bool{}
	for _, p := range e.pairs {
		for _, v := range p.union {
			if seen[v] || s.cleaned[v] {
				continue
			}
			seen[v] = true
			cleaned := append([]bool(nil), s.cleaned...)
			cleaned[v] = true
			for _, pi := range e.varPairs[v] {
				benefits[v] += 2 * (s.pairEV[pi] - refPairEV(e, e.dists, pi, cleaned))
			}
		}
	}
	for i := range benefits {
		if s.cleaned[i] || benefits[i] < 0 {
			benefits[i] = 0
		}
	}
	return benefits
}

// fuzzShape builds a random group query from seed: 2–10 objects with
// supports of 1–6 atoms (point masses and zero-probability atoms
// included), 1–4 terms of width 1–8 in shuffled declaration order, so
// overlapping pairs are common. The product of all supports is capped
// at 2^13 so that every enumeration, pairs included, stays small.
func fuzzShape(seed uint64) (*model.DB, *query.GroupSum) {
	r := rng.New(seed)
	n := 2 + r.Intn(9)
	sizes := make([]int, n)
	prod := 1
	for i := range sizes {
		sizes[i] = 1 + r.Intn(6)
		prod *= sizes[i]
	}
	for prod > 1<<13 {
		big := 0
		for i := range sizes {
			if sizes[i] > sizes[big] {
				big = i
			}
		}
		prod = prod / sizes[big] * (sizes[big] - 1)
		sizes[big]--
	}
	objs := make([]model.Object, n)
	for i, k := range sizes {
		vals := make([]float64, k)
		probs := make([]float64, k)
		for j := range vals {
			vals[j] = float64(r.IntRange(-4, 4)) + 0.25*float64(r.Intn(4))
			if r.Intn(4) > 0 {
				probs[j] = r.Float64() + 0.01
			}
		}
		if probs[0] == 0 {
			probs[0] = 1 // keep the total mass positive
		}
		objs[i] = model.Object{Name: "o", Cost: 1, Value: dist.MustDiscrete(vals, probs)}
	}
	g := &query.GroupSum{Const: float64(r.IntRange(-2, 2))}
	for t, nt := 0, 1+r.Intn(4); t < nt; t++ {
		w := 1 + r.Intn(8)
		if w > n {
			w = n
		}
		vars := r.SampleWithoutReplacement(0, n-1, w)
		coef := make([]float64, w)
		for j := range coef {
			coef[j] = float64(r.IntRange(-3, 3)) + 0.5*float64(r.Intn(2))
		}
		c := float64(r.IntRange(-4, 4))
		switch r.Intn(3) {
		case 0:
			g.Terms = append(g.Terms, query.LinearTerm(vars, coef, c))
		case 1:
			g.Terms = append(g.Terms, query.IndicatorGE(vars, coef, c, 1+r.Float64()))
		default:
			g.Terms = append(g.Terms, query.NegMinSquared(vars, coef, c, r.Float64()))
		}
	}
	return model.New(objs), g
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzGroupTermEV checks the odometer paths bit for bit against the
// recursive reference on random shapes: term and pair expectations under
// a random cleaned mask plus an extra object, their memoized re-reads,
// the re-scores Clean/Delta/DeltasCtx commit and report, the singleton
// benefits of the reached state, and the conditional moments.
func FuzzGroupTermEV(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 7, 42, 99, 1234, 31337} {
		f.Add(seed, seed*0x9e3779b97f4a7c15, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed, maskBits uint64, extraByte uint8) {
		db, g := fuzzShape(seed)
		e, err := NewGroupEngine(db, g)
		if err != nil {
			t.Fatal(err)
		}
		n := db.N()
		cleaned := make([]bool, n)
		for i := range cleaned {
			cleaned[i] = maskBits>>uint(i)&1 == 1
		}
		extra := int(extraByte)%(n+1) - 1 // -1: no extra object
		withExtra := append([]bool(nil), cleaned...)
		if extra >= 0 {
			withExtra[extra] = true
		}
		sc := newEvScratch(n)
		for k := range e.terms {
			want := refTermEV(e, e.dists, k, withExtra)
			if got := e.termEV(e.dists, k, cleaned, extra, sc); !sameBits(got, want) {
				t.Fatalf("term %d (vars %v, mask %v, extra %d): odometer %v, reference %v",
					k, e.terms[k].vars, cleaned, extra, got, want)
			}
			for rep := 0; rep < 2; rep++ {
				got, hit := e.memo(ofTerms, k, cleaned, extra, sc)
				if !sameBits(got, want) || hit != (rep == 1) {
					t.Fatalf("term %d memo read %d: %v (hit %v), want %v", k, rep, got, hit, want)
				}
			}
		}
		for pi := range e.pairs {
			want := refPairEV(e, e.dists, pi, withExtra)
			if got := e.pairEV(e.dists, pi, cleaned, extra, sc); !sameBits(got, want) {
				t.Fatalf("pair %d (union %v, mask %v, extra %d): odometer %v, reference %v",
					pi, e.pairs[pi].union, cleaned, extra, got, want)
			}
			for rep := 0; rep < 2; rep++ {
				got, hit := e.memo(ofPairs, pi, cleaned, extra, sc)
				if !sameBits(got, want) || hit != (rep == 1) {
					t.Fatalf("pair %d memo read %d: %v (hit %v), want %v", pi, rep, got, hit, want)
				}
			}
		}

		// Grow a state to the mask through Clean, checking every
		// committed delta against the in-place reference recompute.
		st := e.NewState()
		for o := 0; o < n; o++ {
			if !cleaned[o] {
				continue
			}
			want := refDelta(st, o)
			if got := st.Delta(o); !sameBits(got, want) {
				t.Fatalf("Delta(%d) = %v, reference %v", o, got, want)
			}
			if got := st.Clean(o); !sameBits(got, want) {
				t.Fatalf("Clean(%d) = %v, reference %v", o, got, want)
			}
		}
		all := make([]int, n)
		for o := range all {
			all[o] = o
		}
		deltas, err := st.DeltasCtx(t.Context(), all)
		if err != nil {
			t.Fatal(err)
		}
		for o, got := range deltas {
			if want := refDelta(st, o); !sameBits(got, want) {
				t.Fatalf("DeltasCtx[%d] = %v, reference %v", o, got, want)
			}
		}
		want := refSingleton(st)
		for o, got := range st.SingletonBenefits() {
			if !sameBits(got, want[o]) {
				t.Fatalf("benefit[%d] = %v, reference %v", o, got, want[o])
			}
		}

		// Conditional moments: the cleaned objects revealed at an atom.
		values := make([]float64, n)
		for i := range values {
			values[i] = e.dists[i].Values[int(seed>>uint(i%32))%e.dists[i].Size()]
		}
		ds := append([]*dist.Discrete(nil), e.dists...)
		for i, k := range cleaned {
			if k {
				ds[i] = dist.PointMass(values[i])
			}
		}
		var mAcc, vAcc numeric.KahanAcc
		mAcc.Add(g.Const)
		noClean := make([]bool, n)
		for k := range e.terms {
			mAcc.Add(refTermMean(e, ds, k))
			vAcc.Add(refTermEV(e, ds, k, noClean))
		}
		for pi := range e.pairs {
			vAcc.Add(2 * refPairEV(e, ds, pi, noClean))
		}
		wantVar := vAcc.Value()
		if wantVar < 0 {
			wantVar = 0
		}
		if gotMean, gotVar := e.CondMoments(values, cleaned); !sameBits(gotMean, mAcc.Value()) || !sameBits(gotVar, wantVar) {
			t.Fatalf("CondMoments = (%v, %v), reference (%v, %v)", gotMean, gotVar, mAcc.Value(), wantVar)
		}
	})
}
