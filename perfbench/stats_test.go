package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// The name and unit rules of BENCHMARK.json.
var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validMetric(name, unit string) bool {
	return metricName.MatchString(name) && unitName.MatchString(unit)
}

func TestRankAndBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		q       float64
		rank    int
		beyondQ int
	}{
		{100, 0.9, 90, 10},
		{101, 0.9, 91, 10},
		{99, 0.9, 90, 9},
		{110, 0.9, 99, 11},
		{10, 0.5, 5, 5},
		{11, 0.5, 6, 5},
		{1, 0.9, 1, 0},
	} {
		if got := rank(tc.n, tc.q); got != tc.rank {
			t.Errorf("rank(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.rank)
		}
		if got := beyond(tc.n, tc.q); got != tc.beyondQ {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.beyondQ)
		}
	}
}

func TestPercentile(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100..1, unsorted
	}
	if p, err := percentile(samples, 0.5); err != nil || p != 50 {
		t.Errorf("p50 = %v, %v; want 50", p, err)
	}
	if p, err := percentile(samples, 0.9); err != nil || p != 90 {
		t.Errorf("p90 = %v, %v; want 90", p, err)
	}
	if _, err := percentile(samples[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples leaves 9 beyond it and must fail")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples must fail")
	}
	if beyond(minTimedOps, 0.9) < minBeyond {
		t.Errorf("minTimedOps = %d leaves fewer than %d samples beyond p90", minTimedOps, minBeyond)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	in := []float64{4, 1, 3, 2}
	if m := median(in); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if in[0] != 4 {
		t.Error("median reordered its argument")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !validMetric(d.name, d.unit) {
				t.Errorf("metric %q with unit %q is not well formed", d.name, d.unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("metric %q: better = %q", d.name, d.better)
			}
			if seen[d.name] {
				t.Errorf("metric %q is defined twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, w := range workloads {
		if !validMetric(w.name, "count") || seen[w.name] {
			t.Errorf("workload name %q is not well formed or not unique", w.name)
		}
		seen[w.name] = true
	}
	for _, bad := range []string{"", "_lead", "has space", "semi;colon", "ünïcode"} {
		if validMetric(bad, "ms") {
			t.Errorf("validMetric accepted %q", bad)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// workloads and metrics this program produces.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s has bound %v, but the largest bound is %v", setupBound, maxBound)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
}
