// Command perfbench is the repository's end-to-end benchmark of
// cleanseld. It starts the daemon in process at its production
// defaults, drives it over loopback HTTP with one closed-loop client
// through a fixed, seed-generated request sequence, checks every
// response against an in-process replay of the same inputs, and prints
// one JSON result line. See README.md.
//
//	bash perfbench/run.sh --workload minvar-wide --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/factcheck/cleansel/internal/obs"
)

// setupReps is how many times an untraced run sets up; setup_s is
// their median. The first setupBefore reps run before the timed pass
// (the last of them serves it), the rest after it. Traced runs only set
// up setupBefore times. Before each rep of an untraced run the
// reference kernel is timed refPerSetup times.
const (
	setupReps   = 3
	setupBefore = 2
	refPerSetup = 4
)

// goldenJSON maps each workload to the digest of its warm-up responses
// (see warmSeed). The warm-up inputs do not depend on --seed, so every
// set-up of every run checks the program's answers against these
// committed digests. A change that alters the program's results on
// purpose must record new digests here: each run prints the digest it
// saw to standard error.
//
//go:embed golden.json
var goldenJSON []byte

// replayStride thins the replay check of untraced runs, and the traced
// run's second solve through the public cleansel call, to every
// replayStride-th op (the traced run replays every op). It is prime to
// every cycle length, so the checked ops cover every task shape.
const replayStride = 7

func main() {
	workload := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Uint64("seed", 1, "input seed: the same seed sends the same requests")
	seconds := flag.Int("seconds", 10, "nominal run length; sizes the fixed request sequence")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics of a traced run")
	flag.Parse()
	spec, err := workloadByName(*workload)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s workload=%s seed=%d seconds=%d trace=%d\n",
		fingerprint(), spec.name, *seed, *seconds, *trace)
	res, err := benchmark(spec, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(mustJSON(res)))
}

// fingerprint names the machine a measurement comes from.
func fingerprint() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s", cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// inputs is one set-up's timed data and sequence.
type inputs struct {
	datasets [][]objectJSON
	ids      []string
	timed    []op
	// warmDigest is the digest of the set-up's warm-up responses.
	warmDigest string
	warmOps    int
}

// setUp starts a fresh server, generates the inputs, uploads the shared
// datasets and sends the warm-up ops, then collects garbage: everything
// between benchmark start and the first timed op.
func setUp(spec *workloadSpec, seed uint64, seconds int) (*target, *inputs, error) {
	t, err := startTarget()
	if err != nil {
		return nil, nil, err
	}
	warmData := genDatasets(spec, warmSeed)
	in := &inputs{datasets: genDatasets(spec, seed)}
	warmIDs, err := t.uploadAll(warmData)
	if err == nil {
		in.ids, err = t.uploadAll(in.datasets)
	}
	var warm []op
	if err == nil {
		warm, in.timed, err = genSequence(spec, seed, warmIDs, warmData, in.ids, in.datasets, seconds)
	}
	if err == nil {
		in.warmOps = len(warm)
		in.warmDigest, err = runWarm(t, warm)
	}
	if err != nil {
		t.close()
		return nil, nil, err
	}
	runtime.GC()
	return t, in, nil
}

// golden is the committed warm-up digest of a workload.
func golden(workload string) (string, error) {
	var digests map[string]string
	if err := json.Unmarshal(goldenJSON, &digests); err != nil {
		return "", fmt.Errorf("golden.json: %w", err)
	}
	d, ok := digests[workload]
	if !ok {
		return "", fmt.Errorf("golden.json has no digest for %s", workload)
	}
	return d, nil
}

// check collects a run's correctness findings.
type check struct {
	failedOps map[int]bool
	problems  []string
}

func (c *check) failOp(i int, format string, args ...any) {
	if !c.failedOps[i] {
		// Report the first failure of an op; later ones add nothing.
		fmt.Fprintf(os.Stderr, "perfbench: op %d: %s\n", i, fmt.Sprintf(format, args...))
	}
	c.failedOps[i] = true
}

func (c *check) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	c.problems = append(c.problems, msg)
}

// benchmark performs one run: set-up (repeated), the untraced timed
// pass, the replay check, and then either the remaining set-ups or,
// for traced runs, a second pass with ?trace=1 on a fresh server.
func benchmark(spec *workloadSpec, seed uint64, seconds int, traced bool) (*result, error) {
	want, err := golden(spec.name)
	if err != nil {
		return nil, err
	}
	// Only untraced runs report times, so only they time the
	// reference kernel.
	var ref *refKernel
	if !traced {
		if ref, err = newRefKernel(); err != nil {
			return nil, err
		}
		defer ref.close()
	}
	tgt, in, setups, warmDigests, err := setUpRepeatedly(spec, seed, seconds, setupBefore, ref)
	if err != nil {
		return nil, err
	}
	n := len(in.timed)
	fmt.Fprintf(os.Stderr, "perfbench: %d timed ops, %d warm-up ops\n", n, in.warmOps)
	plain, err := runPass(tgt, in.timed, spec.cycleOps, false, ref)
	if cerr := tgt.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	c := &check{failedOps: map[int]bool{}}
	for i, o := range plain.ops {
		if o.err != nil {
			c.failOp(i, "%v", o.err)
		}
	}
	rp, err := newReplay(in.ids, in.datasets, traced)
	if err != nil {
		return nil, err
	}
	for i, o := range in.timed {
		if !traced && i%replayStride != 0 {
			continue
		}
		want, err := rp.sums(o, i%replayStride == 0)
		if err != nil {
			c.failOp(i, "replay: %v", err)
			continue
		}
		if !sameSums(want, plain.ops[i].ex) {
			c.failOp(i, "response differs from the in-process replay")
		}
	}
	counts := countsOf(plain)
	stable := exact(counts, spec.racy)
	for _, g := range spec.guards {
		if err := g.check(counts); err != nil {
			c.problem("%s is out of its regime: %v", spec.name, err)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: warm-up digest %s, timed response digest %s, counts %v\n",
		in.warmDigest, responseDigest(plain.ops), counts)

	var metrics map[string]metric
	if traced {
		tp, err := tracedPass(in)
		if err != nil {
			return nil, err
		}
		for i, o := range tp.ops {
			switch {
			case o.err != nil:
				c.failOp(i, "traced: %v", o.err)
			case !sameExchanges(o.ex, plain.ops[i].ex):
				c.failOp(i, "traced response differs from the untraced one")
			}
		}
		if got := exact(countsOf(tp), spec.racy); !maps.Equal(stable, got) {
			c.problem("traced server counters %v differ from the untraced run's %v", got, stable)
		}
		if got := exact(traceCounts(tp), spec.racy); !maps.Equal(stable, got) {
			c.problem("trace envelope counters %v differ from the untraced run's %v", got, stable)
		}
		if got := exact(recorderCounts(rp.rec.Snapshot().Counters), spec.racy); !maps.Equal(stable, got) {
			c.problem("replay counters %v differ from the server's %v", got, stable)
		}
		if metrics, err = report(perLayer, layerValues(plain, tp, rp, n)); err != nil {
			return nil, err
		}
	} else {
		last, _, more, moreDigests, err := setUpRepeatedly(spec, seed, seconds, setupReps-setupBefore, ref)
		if err != nil {
			return nil, err
		}
		if err = last.close(); err != nil {
			return nil, err
		}
		setups, warmDigests = append(setups, more...), append(warmDigests, moreDigests...)
		scale, err := ref.scale()
		if err != nil {
			return nil, err
		}
		var vals map[string]float64
		if vals, err = endToEndValues(plain, n, scale); err != nil {
			return nil, err
		}
		vals["setup_s"] = median(setups) * scale
		if metrics, err = report(endToEnd, vals); err != nil {
			return nil, err
		}
	}
	for rep, d := range warmDigests {
		if d != want {
			c.problem("set-up %d: warm-up response digest %s, golden.json has %s", rep, d, want)
		}
	}
	return &result{
		Correct:   len(c.failedOps) == 0 && len(c.problems) == 0,
		Attempted: n,
		Failed:    len(c.failedOps),
		Metrics:   metrics,
	}, nil
}

// setUpRepeatedly sets up reps times and keeps the last rep's server.
// It returns each rep's time, less the share stolen from the machine
// meanwhile, and warm-up digest. Before each
// rep it shuts the previous rep's server down and collects garbage,
// untimed, so that every rep starts from the near-empty heap of a
// fresh process; then it times a non-nil ref refPerSetup times.
func setUpRepeatedly(spec *workloadSpec, seed uint64, seconds, reps int, ref *refKernel) (*target, *inputs, []float64, []string, error) {
	var (
		tgt     *target
		in      *inputs
		setups  []float64
		digests []string
	)
	for rep := 0; rep < reps; rep++ {
		if tgt != nil {
			if err := tgt.close(); err != nil {
				return nil, nil, nil, nil, err
			}
			tgt, in = nil, nil
		}
		runtime.GC()
		if ref != nil {
			if err := ref.sample(refPerSetup); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		t0, start := readTicks(), time.Now()
		t, got, err := setUp(spec, seed, seconds)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		secs, stolen := time.Since(start).Seconds(), readTicks().stolenSince(t0)
		fmt.Fprintf(os.Stderr, "perfbench: set-up rep: %.3f s measured, %.4f of the machine's time stolen\n", secs, stolen)
		setups = append(setups, secs*(1-stolen))
		digests = append(digests, got.warmDigest)
		tgt, in = t, got
	}
	return tgt, in, setups, digests, nil
}

// tracedPass sends the timed sequence again with ?trace=1, to a fresh
// server so that the result cache starts cold.
func tracedPass(in *inputs) (*passResult, error) {
	t, err := startTarget()
	if err != nil {
		return nil, err
	}
	if err == nil {
		_, err = t.uploadAll(in.datasets)
	}
	var tp *passResult
	if err == nil {
		tp, err = runPass(t, in.timed, 1, true, nil)
	}
	if cerr := t.close(); err == nil {
		err = cerr
	}
	return tp, err
}

func sameSums(want [][32]byte, got []exchange) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if want[i] != got[i].sum {
			return false
		}
	}
	return true
}

func sameExchanges(a, b []exchange) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].sum != b[i].sum || a[i].status != b[i].status {
			return false
		}
	}
	return true
}

// countsOf is the pass's engine counters, read off /metrics, plus
// cache_hits, the number of responses served from the result cache.
func countsOf(p *passResult) map[string]float64 {
	out := map[string]float64{}
	maps.Copy(out, p.engine)
	hits := 0.0
	for _, o := range p.ops {
		for _, ex := range o.ex {
			if ex.cache == "hit" || ex.cache == "coalesced" {
				hits++
			}
		}
	}
	out["cache_hits"] = hits
	return out
}

// traceCounts is the sum of a traced pass's envelope counters.
func traceCounts(p *passResult) map[string]float64 {
	out := map[string]float64{}
	for k, v := range p.counters {
		out[k] = float64(v)
	}
	return out
}

// recorderCounts is a recorder's counters as a map.
func recorderCounts(rec []obs.CounterValue) map[string]float64 {
	out := map[string]float64{}
	for _, cv := range rec {
		out[cv.Name] = float64(cv.Value)
	}
	return out
}

// exact keeps the counters that repeat exactly from run to run: it
// drops cache_hits (a client-side count) and the workload's racy
// counters, whose split depends on goroutine scheduling, and keeps the
// sum of the shared-cache lookups, which does not.
func exact(counts map[string]float64, racy []string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range counts {
		if v != 0 && k != "cache_hits" && !slices.Contains(racy, k) {
			out[k] = v
		}
	}
	if lookups := counts["ev_shared_hits"] + counts["ev_shared_misses"]; lookups != 0 {
		out["ev_shared_lookups"] = lookups
	}
	return out
}

// responseDigest hashes every response of a list of ops, in order.
func responseDigest(ops []opResult) string {
	h := sha256.New()
	for _, o := range ops {
		for _, ex := range o.ex {
			h.Write(ex.sum[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
