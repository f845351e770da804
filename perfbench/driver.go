package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/factcheck/cleansel/internal/server"
)

// target is an in-process cleanseld at its production defaults, served
// on a loopback listener and driven by a single keep-alive client.
type target struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func startTarget() (*target, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	t := &target{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		// One connection, one request in flight: the closed loop of a
		// caller who waits for each reply.
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	go func() { t.served <- t.hs.Serve(ln) }()
	return t, nil
}

// close shuts the listener and server down and waits for the serve
// goroutine to return.
func (t *target) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.hs.Shutdown(ctx)
	if serr := <-t.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	t.client.CloseIdleConnections()
	t.srv.Close()
	return err
}

// reply is one HTTP response.
type reply struct {
	status int
	body   []byte
	cache  string
}

func (t *target) do(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: b, cache: resp.Header.Get("X-Cache")}, nil
}

// upload posts a dataset and returns its content-addressed id.
func (t *target) upload(objs []objectJSON) (string, error) {
	r, err := t.do(http.MethodPost, "/v1/datasets", mustJSON(datasetJSON{Name: "bench", Objects: objs}))
	if err != nil {
		return "", fmt.Errorf("uploading dataset: %w", err)
	}
	if r.status != http.StatusOK {
		return "", fmt.Errorf("uploading dataset: status %d: %s", r.status, r.body)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(r.body, &info); err != nil {
		return "", fmt.Errorf("uploading dataset: %w", err)
	}
	return info.ID, nil
}

// uploadAll posts datasets in order and returns their ids.
func (t *target) uploadAll(datasets [][]objectJSON) ([]string, error) {
	ids := make([]string, 0, len(datasets))
	for _, objs := range datasets {
		id, err := t.upload(objs)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// engineOps scrapes the cleanseld_engine_ops_total counters (engine work
// aggregated from every request's recorder) off /metrics.
func (t *target) engineOps() (map[string]float64, error) {
	r, err := t.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", r.status)
	}
	const prefix = `cleanseld_engine_ops_total{op="`
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(line, `"} `)
		if !ok {
			return nil, fmt.Errorf("/metrics: malformed line %q", sc.Text())
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %w", err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// sessionPlaceholder replaces the randomly minted session id in every
// session response before it is hashed, so digests compare across runs.
const sessionPlaceholder = "s_0000000000000000"

// exchange is one request of an op as the client saw it. Bodies are
// kept only as the hash of the result bytes (trailing newline trimmed,
// session id replaced) — enough to compare bit for bit.
type exchange struct {
	status int
	sum    [32]byte
	cache  string
	ms     float64
	// stages holds the traced response's compile/solve/step totals.
	stages map[string]float64
}

// opResult is one op of a pass.
type opResult struct {
	ms  float64
	ex  []exchange
	err error
}

// envelope is a ?trace=1 response.
type envelope struct {
	Result json.RawMessage `json:"result"`
	Cache  string          `json:"cache"`
	Trace  struct {
		Stages []struct {
			Name    string  `json:"name"`
			TotalMS float64 `json:"total_ms"`
		} `json:"stages"`
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	} `json:"trace"`
}

// caller drives one pass's requests and, for traced passes, unwraps
// the envelopes and sums their counters.
type caller struct {
	t        *target
	traced   bool
	counters map[string]int64
}

// call sends one request and records it as an exchange. A non-2xx
// status is an error.
func (c *caller) call(method, path string, body []byte, sessionID string) (exchange, []byte, error) {
	if c.traced && method != http.MethodDelete {
		path += "?trace=1"
	}
	start := time.Now()
	r, err := c.t.do(method, path, body)
	ex := exchange{status: r.status, cache: r.cache, ms: msSince(start)}
	if err != nil {
		return ex, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if r.status/100 != 2 {
		return ex, nil, fmt.Errorf("%s %s: status %d: %s", method, path, r.status, bytes.TrimSpace(r.body))
	}
	result := r.body
	if c.traced && method != http.MethodDelete {
		var env envelope
		if err := json.Unmarshal(r.body, &env); err != nil {
			return ex, nil, fmt.Errorf("%s %s: trace envelope: %w", method, path, err)
		}
		result = env.Result
		ex.stages = map[string]float64{}
		for _, s := range env.Trace.Stages {
			ex.stages[s.Name] = s.TotalMS
		}
		for _, cv := range env.Trace.Counters {
			c.counters[cv.Name] += cv.Value
		}
	}
	ex.sum = resultSum(result, sessionID)
	return ex, result, nil
}

// resultSum hashes a result body for comparison: trailing whitespace
// trimmed (the trace envelope re-encodes the body compactly) and the
// session id, if any, replaced by the placeholder.
func resultSum(b []byte, sessionID string) [32]byte {
	b = bytes.TrimRight(b, "\n")
	if sessionID != "" {
		b = bytes.ReplaceAll(b, []byte(sessionID), []byte(sessionPlaceholder))
	}
	return sha256.Sum256(b)
}

// sessionView is the part of a session state the client acts on.
type sessionView struct {
	ID             string `json:"id"`
	Steps          int    `json:"steps"`
	Recommendation *struct {
		Object int `json:"object"`
	} `json:"recommendation"`
}

// runOp performs one op: one POST, or one whole session episode that
// follows every recommendation with the seeded true value.
func (c *caller) runOp(o op) opResult {
	start := time.Now()
	var res opResult
	if o.Truth == nil {
		ex, _, err := c.call(http.MethodPost, o.Path, o.Body, "")
		res.ex, res.err = []exchange{ex}, err
		res.ms = msSince(start)
		return res
	}
	res.err = c.episode(o, &res)
	res.ms = msSince(start)
	return res
}

func (c *caller) episode(o op, res *opResult) error {
	// The id is not known until the create reply arrives; hash that
	// reply after reading it.
	ex, body, err := c.call(http.MethodPost, o.Path, o.Body, "")
	res.ex = append(res.ex, ex)
	if err != nil {
		return err
	}
	var st sessionView
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("session create: %w", err)
	}
	id := st.ID
	res.ex[0].sum = resultSum(body, id)
	for st.Recommendation != nil {
		obj := st.Recommendation.Object
		if obj < 0 || obj >= len(o.Truth) {
			return fmt.Errorf("session %s: recommendation %d out of range", id, obj)
		}
		clean := mustJSON(map[string]any{"step": st.Steps, "object": obj, "value": o.Truth[obj]})
		ex, body, err := c.call(http.MethodPost, "/v1/sessions/"+id+"/clean", clean, id)
		res.ex = append(res.ex, ex)
		if err != nil {
			return err
		}
		st = sessionView{}
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("session clean: %w", err)
		}
	}
	ex, _, err = c.call(http.MethodGet, "/v1/sessions/"+id, nil, id)
	res.ex = append(res.ex, ex)
	if err != nil {
		return err
	}
	ex, _, err = c.call(http.MethodDelete, "/v1/sessions/"+id, nil, id)
	res.ex = append(res.ex, ex)
	return err
}

// passSlices is how many consecutive runs of whole cycles a pass is
// cut into for its throughput and CPU figures: their median shrugs off
// a burst of machine noise that a whole-pass mean would absorb. The
// slices also pace the reference kernel's timings (refPerSlice before
// each slice of an untraced pass), outside every op and slice timing.
const (
	passSlices  = 20
	refPerSlice = 3
)

// passResult is one closed-loop pass over a sequence.
type passResult struct {
	ops []opResult
	// wall is the sum of the slices' wall times: the pass without the
	// reference kernel's timings.
	wall time.Duration
	// stolen is the share of the machine's time stolen during the pass.
	stolen float64
	// sliceOps, sliceWall and sliceCPU describe each non-empty slice of
	// the pass: ops, wall time and process CPU time.
	sliceOps   []int
	sliceWall  []time.Duration
	sliceCPU   []time.Duration
	rssMB      []float64
	allocBytes uint64
	numGC      uint32
	// engine holds the /metrics engine-op deltas over the pass.
	engine map[string]float64
	// counters holds the summed trace counters (traced passes only).
	counters map[string]int64
}

// runPass sends ops in order, one at a time, measuring wall time and
// process CPU per slice, and allocation, GC count and sampled RSS over
// the pass. ops is a whole number of cycles of cycle ops each, and
// every slice holds whole cycles, so that every slice sends the same
// task mix. A non-nil ref is timed between the slices.
func runPass(t *target, ops []op, cycle int, traced bool, ref *refKernel) (*passResult, error) {
	if cycle < 1 || len(ops)%cycle != 0 {
		return nil, fmt.Errorf("pass of %d ops is not whole cycles of %d", len(ops), cycle)
	}
	c := &caller{t: t, traced: traced, counters: map[string]int64{}}
	before, err := t.engineOps()
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stop := make(chan struct{})
	var rss []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rss = sampleRSS(stop, 20*time.Millisecond)
	}()
	res := &passResult{ops: make([]opResult, 0, len(ops))}
	ticks0 := readTicks()
	cycles := len(ops) / cycle
	for k := 0; k < passSlices; k++ {
		slice := ops[k*cycles/passSlices*cycle : (k+1)*cycles/passSlices*cycle]
		if len(slice) == 0 {
			continue
		}
		if ref != nil {
			if err := ref.sample(refPerSlice); err != nil {
				return nil, err
			}
		}
		cpu0, t0 := processCPU(), time.Now()
		for _, o := range slice {
			res.ops = append(res.ops, c.runOp(o))
		}
		wall := time.Since(t0)
		res.sliceOps = append(res.sliceOps, len(slice))
		res.sliceWall = append(res.sliceWall, wall)
		res.sliceCPU = append(res.sliceCPU, processCPU()-cpu0)
		res.wall += wall
	}
	if ref != nil {
		if err := ref.sample(refPerSlice); err != nil {
			return nil, err
		}
	}
	res.stolen = readTicks().stolenSince(ticks0)
	close(stop)
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	res.rssMB = rss
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.numGC = ms1.NumGC - ms0.NumGC
	res.counters = c.counters
	after, err := t.engineOps()
	if err != nil {
		return nil, err
	}
	res.engine = map[string]float64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			res.engine[k] = d
		}
	}
	return res, nil
}

// runWarm sends the set-up ops and returns the digest of their
// responses; any failure aborts the run.
func runWarm(t *target, ops []op) (string, error) {
	c := &caller{t: t, counters: map[string]int64{}}
	res := make([]opResult, len(ops))
	for i, o := range ops {
		if res[i] = c.runOp(o); res[i].err != nil {
			return "", fmt.Errorf("warm-up: %w", res[i].err)
		}
	}
	return responseDigest(res), nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleRSS reads the resident set size every period until stop closes.
func sampleRSS(stop <-chan struct{}, period time.Duration) []float64 {
	page := float64(os.Getpagesize())
	tick := time.NewTicker(period)
	defer tick.Stop()
	var out []float64
	for {
		if b, err := os.ReadFile("/proc/self/statm"); err == nil {
			if f := strings.Fields(string(b)); len(f) > 1 {
				if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
					out = append(out, pages*page/(1<<20))
				}
			}
		}
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
	}
}
