package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
)

// The request sequences are generated here, from the seed alone, by
// code the benchmark owns: a change to the program's own dataset or
// claim generators cannot change what the benchmark sends, so two
// commits are always measured on the same inputs.

// rng is splitmix64: tiny, fast, and fixed forever, so a seed names the
// same inputs on every Go release.
type rng struct{ s uint64 }

// newRNG derives an independent stream for one purpose (dataset,
// warm-up, timed sequence) from a seed.
func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: seed ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw from [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw from [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// The request bodies follow the wire format of docs/API.md. They are
// declared here rather than borrowed from the program's wire package
// so that the bytes sent depend on the seed and nothing else.

type objectJSON struct {
	Name    string    `json:"name"`
	Current float64   `json:"current"`
	Cost    float64   `json:"cost"`
	Values  []float64 `json:"values"`
	Probs   []float64 `json:"probs"`
}

type claimJSON struct {
	Name string             `json:"name"`
	Coef map[string]float64 `json:"coef"`
}

type perturbJSON struct {
	Claim       claimJSON `json:"claim"`
	Sensibility float64   `json:"sensibility"`
}

// claimSpec is a claim under scrutiny with its perturbation set.
type claimSpec struct {
	Claim         claimJSON     `json:"claim"`
	Direction     string        `json:"direction"`
	Reference     *float64      `json:"reference,omitempty"`
	Perturbations []perturbJSON `json:"perturbations"`
}

type selectJSON struct {
	DatasetID string `json:"dataset_id"`
	claimSpec
	Measure   string  `json:"measure"`
	Goal      string  `json:"goal"`
	Algorithm string  `json:"algorithm"`
	Budget    float64 `json:"budget"`
	Tau       float64 `json:"tau,omitempty"`
}

type triageJSON struct {
	DatasetID string      `json:"dataset_id"`
	Measure   string      `json:"measure"`
	Claims    []claimSpec `json:"claims"`
}

type sessionJSON struct {
	Objects []objectJSON `json:"objects"`
	claimSpec
	Goal   string  `json:"goal"`
	Budget float64 `json:"budget"`
	Tau    float64 `json:"tau,omitempty"`
}

type datasetJSON struct {
	Name    string       `json:"name"`
	Objects []objectJSON `json:"objects"`
}

// op is one unit of timed work: a single POST for the select and triage
// workloads, a whole create → clean… → get → delete episode for
// sessions (Truth then holds the value each object reveals).
type op struct {
	Path  string
	Body  []byte
	Truth []float64
}

// workloadSpec describes one workload: its optional shared dataset, the
// generator of one task-mix cycle of ops, and how many cycles the
// sequence of a run holds.
type workloadSpec struct {
	name string
	why  string
	// dataset draws one shared dataset, uploaded once in set-up; the
	// workload has datasets of them (none for workloads that send their
	// objects inline). Spreading the requests over several datasets
	// keeps one seed's data from making a whole run heavier or lighter.
	dataset  func(r *rng) []objectJSON
	datasets int
	// cycle draws one whole task-mix cycle of cycleOps ops.
	cycle    func(g *genState) []op
	cycleOps int
	// cyclesPerSecond sizes the timed sequence: a run of s seconds sends
	// ceil(s·cyclesPerSecond) cycles, a fixed amount of work chosen to
	// take about s seconds on the reference machine.
	cyclesPerSecond float64
	// warmCycles is the fixed number of set-up cycles, a whole number
	// of rounds over the datasets, sized to about a second of work on
	// the reference machine so that set-up time is not all noise.
	warmCycles int
	// guards are checked on every run's counters.
	guards []guard
	// racy names counters whose values depend on goroutine scheduling;
	// they are reported but not required to repeat exactly.
	racy []string
}

// cycles is the number of timed cycles for a run of the given length
// (genSequence adds whole cycles until minTimedOps is reached).
func (w *workloadSpec) cycles(seconds int) int {
	return max(1, int(math.Ceil(float64(seconds)*w.cyclesPerSecond)))
}

// genState is what a cycle generator draws from: the stream, the
// cycle's shared dataset and its id, and a running counter for unique
// names.
type genState struct {
	r      *rng
	stream string
	id     string
	objs   []objectJSON
	next   int
}

// genObjects draws n objects: object i's support holds size(i)
// distinct integers from [1, 100] with random weights, its current value
// is drawn from the support, and it costs cost(i).
func genObjects(r *rng, prefix string, n int, size, cost func(i int) int) []objectJSON {
	objs := make([]objectJSON, n)
	for i := range objs {
		size := size(i)
		vals := make([]float64, 0, size)
		used := map[int]bool{}
		for len(vals) < size {
			v := 1 + r.intn(100)
			if !used[v] {
				used[v] = true
				vals = append(vals, float64(v))
			}
		}
		probs := make([]float64, size)
		for j := range probs {
			probs[j] = 1 - r.float()
		}
		objs[i] = objectJSON{
			Name:    fmt.Sprintf("%s/%d", prefix, i),
			Values:  vals,
			Probs:   probs,
			Current: vals[sample(r, probs)],
			Cost:    float64(cost(i)),
		}
	}
	return objs
}

// dense gives every object a support of six values.
func dense(int) int { return 6 }

// sample draws an index with probability proportional to weights.
func sample(r *rng, weights []float64) int {
	var tot float64
	for _, w := range weights {
		tot += w
	}
	u := r.float() * tot
	for i, w := range weights {
		if u < w {
			return i
		}
		u -= w
	}
	return len(weights) - 1
}

func windowSum(name string, start, w int) claimJSON {
	coef := make(map[string]float64, w)
	for i := start; i < start+w; i++ {
		coef[strconv.Itoa(i)] = 1
	}
	return claimJSON{Name: name, Coef: coef}
}

func windowComparison(name string, earlier, later, w int) claimJSON {
	coef := make(map[string]float64, 2*w)
	for i := 0; i < w; i++ {
		coef[strconv.Itoa(earlier+i)] -= 1
		coef[strconv.Itoa(later+i)] += 1
	}
	return claimJSON{Name: name, Coef: coef}
}

// disjointWindows is the perturbation set of window-sum claims over
// the disjoint width-w windows, weighted by exp(−λ·distance in windows)
// from the claim's own window.
func disjointWindows(n, w, anchor int, lambda float64) []perturbJSON {
	var out []perturbJSON
	for s := 0; s+w <= n; s += w {
		d := math.Abs(float64(s-anchor)) / float64(w)
		out = append(out, perturbJSON{Claim: windowSum(fmt.Sprintf("w@%d", s), s, w), Sensibility: math.Exp(-lambda * d)})
	}
	return out
}

// slidingComparisons is the perturbation set of every back-to-back
// window comparison, weighted by exp(−λ·distance) from the claim's own.
func slidingComparisons(n, w, anchor int, lambda float64) []perturbJSON {
	var out []perturbJSON
	for s := 0; s+2*w <= n; s++ {
		d := math.Abs(float64(s - anchor))
		out = append(out, perturbJSON{Claim: windowComparison(fmt.Sprintf("c@%d", s), s, s+w, w), Sensibility: math.Exp(-lambda * d)})
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every generated value is plain data
	}
	return b
}

func totalCost(objs []objectJSON) float64 {
	var c float64
	for _, o := range objs {
		c += o.Cost
	}
	return c
}

// meanWindowSum is the mean current sum over the disjoint width-w
// windows: an asserted Γ that is plausible for some spans and doubtful
// for others.
func meanWindowSum(objs []objectJSON, w int) float64 {
	var tot float64
	cnt := 0
	for s := 0; s+w <= len(objs); s += w {
		for i := s; i < s+w; i++ {
			tot += objs[i].Current
		}
		cnt++
	}
	return tot / float64(cnt)
}

// minTimedOps is the shortest timed sequence: it leaves minBeyond
// samples above the 90th percentile.
const minTimedOps = 10 * minBeyond

// warmSeed draws the warm-up inputs. It is fixed, so every run's
// warm-up sends the same requests whatever --seed is: its work does not
// vary with the seed, and its responses can be checked against the
// digests committed in golden.json.
const warmSeed = 0x5eed

// genOps generates cycles whole task-mix cycles of one stream, adding
// cycles until the list holds at least minOps ops and ends on a whole
// round over the datasets. Cycle c runs against dataset c mod len(ids)
// (datasets[i] uploaded as ids[i]).
func genOps(spec *workloadSpec, seed uint64, stream string, ids []string, datasets [][]objectJSON, cycles, minOps int) []op {
	g := &genState{r: newRNG(seed, spec.name+"/"+stream), stream: stream}
	rounds := max(1, len(ids))
	var out []op
	for c := 0; c < cycles || len(out) < minOps || c%rounds != 0; c++ {
		if len(ids) > 0 {
			g.id, g.objs = ids[c%rounds], datasets[c%rounds]
		}
		ops := spec.cycle(g)
		if len(ops) != spec.cycleOps {
			panic(fmt.Sprintf("%s: cycle of %d ops, want %d", spec.name, len(ops), spec.cycleOps))
		}
		out = append(out, ops...)
	}
	return out
}

// genSequence generates a workload's set-up and timed ops. The warm-up
// comes from warmSeed over the warm-up datasets, the timed sequence
// from the run's seed over its own datasets; timed cycles come in whole
// rounds over the datasets, so each dataset serves the same task mix.
// No body repeats within or across the two lists, so no timed request
// can be served from the result cache.
func genSequence(spec *workloadSpec, seed uint64, warmIDs []string, warmData [][]objectJSON,
	ids []string, datasets [][]objectJSON, seconds int) (warm, timed []op, err error) {
	warm = genOps(spec, warmSeed, "warm", warmIDs, warmData, spec.warmCycles, 0)
	timed = genOps(spec, seed, "timed", ids, datasets, spec.cycles(seconds), minTimedOps)
	seen := map[[32]byte]bool{}
	for _, o := range append(append([]op{}, warm...), timed...) {
		sum := sha256.Sum256(o.Body)
		if seen[sum] {
			return nil, nil, fmt.Errorf("%s: generator repeated a request body", spec.name)
		}
		seen[sum] = true
	}
	return warm, timed, nil
}

// genDatasets draws a workload's shared datasets (none when it sends
// its objects inline).
func genDatasets(spec *workloadSpec, seed uint64) [][]objectJSON {
	out := make([][]objectJSON, spec.datasets)
	for i := range out {
		out[i] = spec.dataset(newRNG(seed, fmt.Sprintf("%s/dataset%d", spec.name, i)))
	}
	return out
}
