package main

import (
	"fmt"
	"os"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of untraced runs: what a user of the daemon
// sees. An op is one request; for triage-stream one batch, for
// session-episodes one whole episode.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"rss_median_mb", "MB", "lower"},
}

// perLayer are the metrics of traced runs, one group per layer.
var perLayer = []metricDef{
	{"server.overhead_ms", "ms", "lower"},
	{"server.compile_ms", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.solve_ms", "ms", "lower"},
	{"replay.solve_ratio", "ratio", "lower"},
	{"wire.decode_ms", "ms", "lower"},
	{"wire.build_ms", "ms", "lower"},
	{"cleansel.call_ms", "ms", "lower"},
	{"session.step_ms", "ms", "lower"},
	{"session.step_evals", "count", "lower"},
	{"session.conditioned", "count", "lower"},
	{"core.select_ms", "ms", "lower"},
	{"core.greedy_self_ms", "ms", "lower"},
	{"core.triage_assess_ms", "ms", "lower"},
	{"core.triage_dedup_hits", "count", "higher"},
	{"ev.engine_build_ms", "ms", "lower"},
	{"ev.state_init_ms", "ms", "lower"},
	{"ev.singleton_ms", "ms", "lower"},
	{"ev.final_ev_ms", "ms", "lower"},
	{"ev.calls", "count", "lower"},
	{"ev.cache_hit_ratio", "ratio", "higher"},
	{"ev.shared_hit_ratio", "ratio", "higher"},
	{"maxpr.prob_calls", "count", "lower"},
	{"maxpr.prob_ms", "ms", "lower"},
	{"maxpr.exact_ratio", "ratio", "higher"},
	{"dist.conv_ops", "count", "lower"},
	{"dist.conv_atoms_merged", "count", "lower"},
	{"dist.conv_ops_per_prob", "count", "lower"},
	{"parallel.fanouts", "count", "lower"},
	{"parallel.items_per_fanout", "count", "higher"},
	{"go.alloc_mb_per_op", "MB", "lower"},
	{"go.gc_per_op", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// report pairs each defined metric with its value and echoes the table
// to standard error. A value without a definition, or the reverse, is
// a bug in the benchmark.
func report(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("computed %d metrics for %d definitions", len(vals), len(defs))
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("no value for metric %s", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "perfbench:   %-26s %14.6g %s\n", d.name, v, d.unit)
	}
	return out, nil
}

// endToEndValues computes the untraced run's metrics, all but setup_s,
// with every time at reference speed (see reference.go): CPU times
// multiplied by scale, wall times also by one minus the share of the
// machine's time stolen during the pass, and rates divided by that.
func endToEndValues(p *passResult, n int, scale float64) (map[string]float64, error) {
	lat := make([]float64, n)
	for i, o := range p.ops {
		lat[i] = o.ms
	}
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return nil, err
	}
	rate := make([]float64, len(p.sliceOps))
	cpu := make([]float64, len(p.sliceOps))
	for k := range rate {
		rate[k] = float64(p.sliceOps[k]) / p.sliceWall[k].Seconds()
		cpu[k] = float64(p.sliceCPU[k].Nanoseconds()) / 1e6 / float64(p.sliceOps[k])
	}
	fmt.Fprintf(os.Stderr, "perfbench: measured over %d samples (%d beyond p90): p50 %.3f ms, p90 %.3f ms, %.3f ops/s, %.3f CPU ms/op, %.4f of the machine's time stolen\n",
		n, beyond(n, 0.9), p50, p90, median(rate), median(cpu), p.stolen)
	wall := scale * (1 - p.stolen)
	return map[string]float64{
		"ops_per_s":      median(rate) / wall,
		"latency_p50_ms": p50 * wall,
		"latency_p90_ms": p90 * wall,
		"cpu_ms_per_op":  median(cpu) * scale,
		"rss_median_mb":  median(p.rssMB),
	}, nil
}

// minSolveRatio is the lowest replay.solve_ratio, and its inverse the
// highest, that a traced run accepts without a warning. The ratio
// reads 0.85–0.96 on the select and triage workloads and about 0.6 on
// session-episodes, whose steps take microseconds and run cache-cold
// in the server, right after network I/O.
const minSolveRatio = 0.5

// layerValues computes the traced run's per-layer metrics from the
// untraced pass (process figures), the traced pass (the program's
// spans and counters) and the replay (the benchmark's own timers).
// Times and counts are per op unless the name says otherwise.
func layerValues(plain, tp *passResult, rp *replay, n int) map[string]float64 {
	ops := float64(n)
	perOp := func(v float64) float64 { return v / ops }
	c := traceCounts(tp)
	stages := map[string]float64{}
	for _, st := range rp.rec.Snapshot().Stages {
		stages[st.Name] = st.TotalMS
	}
	var overhead, compile, solve, cached, lookups float64
	for _, o := range tp.ops {
		for _, ex := range o.ex {
			overhead += ex.ms - ex.stages["compile"] - ex.stages["solve"] - ex.stages["step"]
			compile += ex.stages["compile"]
			solve += ex.stages["solve"] + ex.stages["step"]
			switch ex.cache {
			case "hit", "coalesced":
				cached++
				lookups++
			case "miss":
				lookups++
			}
		}
	}
	evSpans := stages["ev_state_init"] + stages["singleton_benefits"]
	// The replay's calls that the server's solve and step spans cover.
	replaySolve := rp.clock.ms("solve.select") + rp.clock.ms("core.triage_assess") +
		rp.clock.ms("session.create") + rp.clock.ms("session.step")
	solveRatio := ratio(replaySolve, solve)
	if solveRatio < minSolveRatio || solveRatio > 1/minSolveRatio {
		fmt.Fprintf(os.Stderr, "perfbench: WARNING: the replay's solve took %.2f× the server's solve and step spans; "+
			"the replay (replay.go) may no longer mirror the program\n", solveRatio)
	}
	return map[string]float64{
		"server.overhead_ms":        perOp(overhead),
		"server.compile_ms":         perOp(compile),
		"server.cache_hit_ratio":    ratio(cached, lookups),
		"server.solve_ms":           perOp(solve),
		"replay.solve_ratio":        solveRatio,
		"wire.decode_ms":            perOp(rp.clock.ms("wire.decode")),
		"wire.build_ms":             perOp(rp.clock.ms("wire.build")),
		"cleansel.call_ms":          ratio(rp.clock.ms("cleansel.call"), float64(rp.apiCalls)),
		"session.step_ms":           ratio(rp.clock.ms("session.step"), float64(rp.steps)),
		"session.step_evals":        perOp(c["session_step_evals"]),
		"session.conditioned":       perOp(c["session_conditioned"]),
		"core.select_ms":            perOp(rp.clock.ms("core.select")),
		"core.greedy_self_ms":       perOp(rp.clock.ms("core.select") - evSpans - rp.clock.ms("maxpr.prob")),
		"core.triage_assess_ms":     perOp(rp.clock.ms("core.triage_assess")),
		"core.triage_dedup_hits":    perOp(c["triage_dedup_hits"]),
		"ev.engine_build_ms":        perOp(rp.clock.ms("ev.engine_build")),
		"ev.state_init_ms":          perOp(stages["ev_state_init"]),
		"ev.singleton_ms":           perOp(stages["singleton_benefits"]),
		"ev.final_ev_ms":            perOp(rp.clock.ms("ev.final_ev")),
		"ev.calls":                  perOp(c["ev_calls"]),
		"ev.cache_hit_ratio":        ratio(c["ev_cache_hits"], c["ev_cache_hits"]+c["ev_cache_misses"]),
		"ev.shared_hit_ratio":       ratio(c["ev_shared_hits"], c["ev_shared_hits"]+c["ev_shared_misses"]),
		"maxpr.prob_calls":          perOp(float64(rp.probs)),
		"maxpr.prob_ms":             perOp(rp.clock.ms("maxpr.prob")),
		"maxpr.exact_ratio":         ratio(c["maxpr_exact"], c["maxpr_exact"]+c["maxpr_mc_fallback"]),
		"dist.conv_ops":             perOp(c["conv_ops"]),
		"dist.conv_atoms_merged":    perOp(c["conv_atoms_merged"]),
		"dist.conv_ops_per_prob":    ratio(c["conv_ops"], float64(rp.probs)),
		"parallel.fanouts":          perOp(c["parallel_fanouts"]),
		"parallel.items_per_fanout": ratio(c["parallel_items"], c["parallel_fanouts"]),
		"go.alloc_mb_per_op":        perOp(float64(plain.allocBytes) / (1 << 20)),
		"go.gc_per_op":              perOp(float64(plain.numGC)),
		"trace.overhead_pct":        100 * (tp.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds(),
	}
}
