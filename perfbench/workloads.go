package main

import "fmt"

// Workload shapes. The constants are part of the benchmark's
// definition: changing one changes what every later run measures.
const (
	wideN, wideW       = 120, 6 // minvar-wide: 6^6 outcomes per window term
	maxprN, maxprW     = 48, 3  // maxpr-discrete
	maxprCost          = 4      // with maxprMaxBudget, caps |T ∪ {o}| at 4 objects,
	maxprMaxBudget     = 17     // so at most 6^4 states: far under the exact-convolution cap
	triageN, triageW   = 40, 5
	triageFamilies     = 24
	triageBatch        = 100
	sessionN, sessionW = 24, 3
)

// guard pins a workload to the mechanism it was chosen for: a counter
// that must stay zero, or one that must be positive. The counters are
// deterministic, so a guard never flickers; a change that moves a
// workload off its mechanism fails the run instead of posting a gain
// or loss that measures something else.
type guard struct {
	counter  string
	positive bool
}

func (g guard) check(counts map[string]float64) error {
	v := counts[g.counter]
	if g.positive && v <= 0 {
		return fmt.Errorf("%s = %v, want > 0", g.counter, v)
	}
	if !g.positive && v != 0 {
		return fmt.Errorf("%s = %v, want 0", g.counter, v)
	}
	return nil
}

// noCache is every workload's guard: no timed request may be served
// from the result cache.
var noCache = guard{counter: "cache_hits"}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []*workloadSpec{
	{
		name: "minvar-wide",
		why:  "MinVar greedy over 6-object windows: the ev group engine and the serial core greedy refresh",
		dataset: func(r *rng) []objectJSON {
			return genObjects(r, "wide", wideN, widePattern, tenCosts)
		},
		datasets:        4,
		cycle:           minvarCycle,
		cycleOps:        6,
		guards:          []guard{noCache, {counter: "conv_ops"}, {counter: "ev_calls", positive: true}},
		cyclesPerSecond: 4.5,
		warmCycles:      4,
	},
	{
		name: "maxpr-discrete",
		why:  "MaxPr greedy whose every evaluation is an exact dist convolution under maxpr.Hybrid",
		dataset: func(r *rng) []objectJSON {
			return genObjects(r, "disc", maxprN, dense, func(int) int { return maxprCost })
		},
		datasets: 32,
		cycle:    maxprCycle,
		cycleOps: 5,
		guards: []guard{noCache, {counter: "ev_calls"}, {counter: "maxpr_mc_fallback"},
			{counter: "maxpr_exact", positive: true}},
		cyclesPerSecond: 14,
		warmCycles:      32,
	},
	{
		name: "triage-stream",
		why:  "bulk triage batches of a viral claim stream: shared EV cache and signature dedup",
		dataset: func(r *rng) []objectJSON {
			return genObjects(r, "tri", triageN, dense, tenCosts)
		},
		datasets: 1,
		cycle:    triageCycle,
		cycleOps: 1,
		guards: []guard{noCache, {counter: "ev_shared_hits", positive: true},
			{counter: "triage_dedup_hits", positive: true}},
		// Claims of one batch are assessed concurrently; when two reach
		// the same shared term at once both miss, and the extra solve
		// adds a fan-out. Results and the hit+miss total are exact.
		racy:            []string{"ev_shared_hits", "ev_shared_misses", "parallel_fanouts", "parallel_items"},
		cyclesPerSecond: 22,
		warmCycles:      16,
	},
	{
		name:            "session-episodes",
		why:             "whole adaptive cleaning episodes: cheap steps, so the server, wire and session layers dominate",
		cycle:           sessionCycle,
		cycleOps:        3,
		guards:          []guard{noCache, {counter: "session_conditioned", positive: true}},
		cyclesPerSecond: 180,
		warmCycles:      100,
	},
}

// widePattern sizes minvar-wide's supports with period wideW, so every
// width-wideW window, wherever it starts, enumerates the same
// 2·3·4·5·6·6 = 4320 outcomes: the work per term does not depend on
// the seed.
func widePattern(i int) int { return []int{2, 3, 4, 5, 6, 6}[i%wideW] }

// The shared datasets take their costs from fixed patterns rather than
// the seed: the cost mix sets how many objects a budget buys, and with
// it how much work each solve does, so a seed-drawn mix would make
// every request of a run systematically heavier or lighter.
// maxpr-discrete goes further and gives every object the same cost, so
// that a budget buys the same number of objects whichever the greedy
// picks: a MaxPr solve's work then hardly depends on the seed's values.

// tenCosts cycles through the costs 1..10 in a fixed order.
func tenCosts(i int) int { return 1 + 7*i%10 }

// workloadByName resolves a --workload argument.
func workloadByName(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// minvarCycle is one uniqueness and one robustness MinVar solve at each
// of three budget levels; the claim anchor, the asserted Γ and the
// exact budget fraction are drawn per request.
func minvarCycle(g *genState) []op {
	var out []op
	total := totalCost(g.objs)
	gamma := meanWindowSum(g.objs, wideW)
	for _, frac := range []float64{0.10, 0.20, 0.30} {
		for _, measure := range []string{"uniqueness", "robustness"} {
			anchor := g.r.intn(wideN - wideW + 1)
			ref := gamma * (0.9 + 0.2*g.r.float())
			req := selectJSON{
				DatasetID: g.id,
				claimSpec: claimSpec{
					Claim:         windowSum(fmt.Sprintf("low@%d", anchor), anchor, wideW),
					Direction:     "lower",
					Reference:     &ref,
					Perturbations: disjointWindows(wideN, wideW, anchor, 0.5),
				},
				Measure:   measure,
				Goal:      "minvar",
				Algorithm: "greedy",
				Budget:    total * (frac + 0.04*(g.r.float()-0.5)),
			}
			out = append(out, op{Path: "/v1/select", Body: mustJSON(req)})
		}
	}
	return out
}

// maxprCycle is five MaxPr solves whose budgets buy one, two, three,
// four and four objects. Every object costs maxprCost and no budget
// exceeds maxprMaxBudget, so no candidate set holds more than four
// objects and exact convolution carries every evaluation. Each object
// more multiplies a solve's time by about five, so the classes barely
// overlap: this mix puts the sequence's p50 in the middle of the
// three-object class and its p90 inside the four-object ones, not on
// the edge between two classes, where it would jump between them.
func maxprCycle(g *genState) []op {
	var out []op
	for _, budget := range []float64{5, 9, 13, maxprMaxBudget, maxprMaxBudget} {
		anchor := g.r.intn(maxprN - 2*maxprW + 1)
		req := selectJSON{
			DatasetID: g.id,
			claimSpec: claimSpec{
				Claim:         windowComparison(fmt.Sprintf("rise@%d", anchor), anchor, anchor+maxprW, maxprW),
				Direction:     "higher",
				Perturbations: slidingComparisons(maxprN, maxprW, anchor, 0.3),
			},
			Measure:   "fairness",
			Goal:      "maxpr",
			Algorithm: "greedy",
			Budget:    budget - g.r.float(),
			Tau:       1 + 4*g.r.float(),
		}
		out = append(out, op{Path: "/v1/select", Body: mustJSON(req)})
	}
	return out
}

// triageCycle is one batch cut from a claim stream over the shared
// dataset: every arrival reposts one of triageFamilies base claims
// (window-sum low-claims at different anchors asserting one shared Γ)
// under a fresh name, and low-numbered families go viral more often.
func triageCycle(g *genState) []op {
	gamma := meanWindowSum(g.objs, triageW)
	req := triageJSON{DatasetID: g.id, Measure: "uniqueness"}
	for i := 0; i < triageBatch; i++ {
		u := g.r.float()
		fam := int(float64(triageFamilies) * u * u)
		anchor := fam % (triageN - triageW + 1)
		ref := gamma
		req.Claims = append(req.Claims, claimSpec{
			Claim:         windowSum(fmt.Sprintf("%s-arrival-%06d/fam-%d", g.stream, g.next, fam), anchor, triageW),
			Direction:     "lower",
			Reference:     &ref,
			Perturbations: disjointWindows(triageN, triageW, anchor, 0.5),
		})
		g.next++
	}
	return []op{{Path: "/v1/triage", Body: mustJSON(req)}}
}

// sessionCycle is two MaxPr episodes and one MinVar episode, each over
// its own small inline dataset with seeded true values. MinVar episodes
// take about three times as long; with two goals in equal numbers the
// sequence's p50 would fall on the edge between them, while with two to
// one it falls inside the MaxPr episodes and the p90 inside the MinVar
// ones.
func sessionCycle(g *genState) []op {
	var out []op
	for _, goal := range []string{"maxpr", "minvar", "maxpr"} {
		objs := genObjects(g.r, fmt.Sprintf("%s-ep%d", g.stream, g.next), sessionN,
			func(int) int { return 2 + g.r.intn(5) }, func(int) int { return 1 + g.r.intn(10) })
		g.next++
		truth := make([]float64, len(objs))
		for i, o := range objs {
			truth[i] = o.Values[sample(g.r, o.Probs)]
		}
		anchor := g.r.intn(sessionN - sessionW + 1)
		req := sessionJSON{
			Objects: objs,
			claimSpec: claimSpec{
				Claim:         windowSum(fmt.Sprintf("high@%d", anchor), anchor, sessionW),
				Direction:     "higher",
				Perturbations: disjointWindows(sessionN, sessionW, anchor, 0.5),
			},
			Goal:   goal,
			Budget: totalCost(objs) * (0.5 + 0.3*g.r.float()),
		}
		if goal == "maxpr" {
			req.Tau = 2 + 6*g.r.float()
		}
		out = append(out, op{Path: "/v1/sessions", Body: mustJSON(req), Truth: truth})
	}
	return out
}
