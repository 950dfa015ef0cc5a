package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/adaptive"
)

// sizes fixes every input dimension of a run. Full sizes are what the
// numbers in BENCHMARK.json mean; toy sizes serve the self-test and fill in,
// during a traced run, the layers the selected workload does not drive.
type sizes struct {
	Name string `json:"name"`

	InsituN      int `json:"insitu_n"`
	InsituSteps  int `json:"insitu_steps"`  // materialised steps, replayed ping-pong
	InsituDecode int `json:"insitu_decode"` // steps read back in the decode window

	RanksN      int `json:"ranks_n"`
	RanksFields int `json:"ranks_fields"`
	RanksSteps  int `json:"ranks_steps"`
	RanksWarm   int `json:"ranks_warm"`   // committed steps before the window opens (the first one calibrates)
	RanksRef    int `json:"ranks_ref"`    // steps of the single-process reference run
	RanksDecode int `json:"ranks_decode"` // merged steps decoded and bound-checked

	SvcN            int `json:"svc_n"`
	SvcClients      int `json:"svc_clients"`
	SvcTenants      int `json:"svc_tenants"`
	SvcDecodeRounds int `json:"svc_decode_rounds"` // each decodes every (tenant, kind) reference once

	ArcN       int `json:"arc_n"`
	ArcSteps   int `json:"arc_steps"`
	ArcReaders int `json:"arc_readers"`
	ArcWarm    int `json:"arc_warm"` // fetches per reader before the window opens
	// ArcRatioOps is the per-reader prefix compression_ratio covers; long
	// enough that the drawn mix of rungs has settled.
	ArcRatioOps     int `json:"arc_ratio_ops"`
	ArcDecodeRounds int `json:"arc_decode_rounds"` // each decodes every field of one step once

	ProbeN       int     `json:"probe_n"`
	SetupReps    int     `json:"setup_reps"`    // set-ups per run, at least
	SetupSeconds float64 `json:"setup_seconds"` // cheap set-ups repeat until this is spent
}

var fullSizes = sizes{
	Name:    "full",
	InsituN: 128, InsituSteps: 6, InsituDecode: 24,
	RanksN: 32, RanksFields: 6, RanksSteps: 6, RanksWarm: 2, RanksRef: 6, RanksDecode: 512,
	SvcN: 32, SvcClients: 8, SvcTenants: 4, SvcDecodeRounds: 256,
	ArcN: 64, ArcSteps: 24, ArcReaders: 4, ArcWarm: 150, ArcRatioOps: 2000, ArcDecodeRounds: 200,
	ProbeN: 64, SetupReps: 3, SetupSeconds: 2,
}

var toySizes = sizes{
	Name:    "toy",
	InsituN: 32, InsituSteps: 3, InsituDecode: 2,
	RanksN: 32, RanksFields: 2, RanksSteps: 3, RanksWarm: 1, RanksRef: 3, RanksDecode: 1,
	SvcN: 32, SvcClients: 4, SvcTenants: 2, SvcDecodeRounds: 1,
	ArcN: 32, ArcSteps: 6, ArcReaders: 2, ArcWarm: 20, ArcRatioOps: 64, ArcDecodeRounds: 3,
	ProbeN: 32, SetupReps: 1,
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // length of the timed window
	ops      int     // > 0: the window ends after this many ops instead (exact repeats; the self-test)
	trace    bool
	sz       sizes
	tmp      string // scratch directory inside the checkout
}

// window decides when a timed loop stops: after cfg.ops ops when set,
// after cfg.seconds otherwise, and never before minOps (the fixed prefix
// compression_ratio is computed over, so that it repeats exactly).
type window struct {
	start   time.Time
	seconds float64
	ops     int
	minOps  int
}

// fixedWindow is a window of exactly ops ops per party (warm-ups).
func fixedWindow(ops int) *window { return &window{start: time.Now(), ops: ops} }

func (c runConfig) window(share float64, minOps, parties int) *window {
	w := &window{start: time.Now(), seconds: c.seconds * share, minOps: minOps}
	if c.ops > 0 {
		w.ops = max(c.ops/parties, minOps)
	}
	return w
}

// more reports whether a party that has completed done ops runs another.
func (w *window) more(done int) bool {
	if done < w.minOps {
		return true
	}
	if w.ops > 0 {
		return done < w.ops
	}
	return time.Since(w.start).Seconds() < w.seconds
}

// outcome is what one workload run hands back to the harness.
type outcome struct {
	setup     []float64 // seconds, one per set-up repetition
	lats      []float64 // ms, one per verified op of the untraced window
	ends      []float64 // seconds from the window's start to each op's completion, same order
	attempted int       // ops and decode checks attempted
	failed    int       // failed, refused or verification-failed
	rawBytes  int64     // over the fixed ratio prefix
	outBytes  int64
	allocs    uint64 // TotalAlloc delta over the untraced window
	// The decode window goes round the workload's field kinds, one field of
	// each per round: decodeRoundMs has one total per round whose fields all
	// decoded and passed their check, decodeRoundFields the fields in a round.
	decodeRoundMs     []float64
	decodeRoundFields int
	layer             map[string]float64 // per-layer metrics this workload measured
	problems          []string           // first few failure messages
	counts            map[string]int     // op counts, for the provenance
	spans             *tracer            // the traced window's spans, nil when untraced
}

func newOutcome() *outcome {
	return &outcome{layer: map[string]float64{}, counts: map[string]int{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// op records one verified op of the untraced window.
func (o *outcome) op(w *window, lat time.Duration) {
	o.lats = append(o.lats, float64(lat)/1e6)
	o.ends = append(o.ends, time.Since(w.start).Seconds())
}

// absorb folds one closed-loop party's results into the workload's.
func (o *outcome) absorb(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.rawBytes += p.rawBytes
	o.outBytes += p.outBytes
	o.lats = append(o.lats, p.lats...)
	o.ends = append(o.ends, p.ends...)
	for _, msg := range p.problems {
		if len(o.problems) < 8 {
			o.problems = append(o.problems, msg)
		}
	}
}

// rateSlices is how many equal-count slices of the window ops_per_s is the
// median over.
const rateSlices = 12

// sliceRate is the throughput of a window that shares its machine: the ops
// are cut, in completion order, into rateSlices equal-count slices, each
// slice's rate is its ops over its wall time, and the median slice is
// reported. A stall that hits a few slices (a noisy neighbour, a collector
// cycle) moves ops / wall time; it does not move the median slice.
func sliceRate(ends []float64) float64 {
	t := append([]float64(nil), ends...)
	sort.Float64s(t)
	n := len(t)
	if n == 0 {
		return math.NaN()
	}
	if n < 2*rateSlices {
		return float64(n) / t[n-1]
	}
	var rates []float64
	prevEnd, prevIdx := 0.0, 0
	for k := 1; k <= rateSlices; k++ {
		idx := k * n / rateSlices
		rates = append(rates, float64(idx-prevIdx)/(t[idx-1]-prevEnd))
		prevEnd, prevIdx = t[idx-1], idx
	}
	return median(rates)
}

// decodeRate is fields decoded and checked per second by the decode window's
// one caller. Field kinds differ in decode cost, so the unit of time is a
// round — one field of every kind — and a slowdown in any kind moves it. The
// rate comes from the lower quartile of the round times: on a shared box a
// neighbour or a collector cycle only ever slows a round, and whether they
// touch a third or two thirds of a short window is chance, so the median
// jumps between two modes while the lower quartile stays on the undisturbed
// one.
func (o *outcome) decodeRate() float64 {
	s := append([]float64(nil), o.decodeRoundMs...)
	sort.Float64s(s)
	return 1000 * float64(o.decodeRoundFields) / percentile(s, 25)
}

// endToEndMetrics derives the eight end-to-end metrics.
func (o *outcome) endToEndMetrics(w workloadSpec) (map[string]float64, map[string]int) {
	lats := append([]float64(nil), o.lats...)
	sort.Float64s(lats)
	m := map[string]float64{
		"setup_s":           median(o.setup),
		"ops_per_s":         sliceRate(o.ends),
		"lat_p50_ms":        percentile(lats, 50),
		"lat_tail_ms":       percentile(lats, w.tailPct),
		"decode_ops_per_s":  o.decodeRate(),
		"compression_ratio": float64(o.rawBytes) / float64(o.outBytes),
		"alloc_kb_per_op":   float64(o.allocs) / 1024 / float64(max(len(lats), 1)),
		"peak_rss_mb":       peakRSSMiB(),
	}
	samples := map[string]int{
		"setup_s":          len(o.setup),
		"lat_p50_ms":       len(lats),
		"lat_tail_ms":      len(lats),
		"decode_ops_per_s": len(o.decodeRoundMs),
	}
	return m, samples
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// repeatSetup runs a workload's set-up at least sz.SetupReps times, and on
// until sz.SetupSeconds are spent or maxSetupReps reached, tearing every
// repetition but the last down again. It returns the last environment with
// every repetition's duration. One process start cannot give a steady set-up
// time, and three cannot where a set-up takes a tenth of a second, as it does
// on ranks-tcp and service-write.
func repeatSetup[E any](sz sizes, setup func() (E, error), teardown func(E)) (E, []float64, error) {
	var times []float64
	for start := time.Now(); ; {
		t0 := time.Now()
		env, err := setup()
		if err != nil {
			return env, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) >= sz.SetupReps && (time.Since(start).Seconds() >= sz.SetupSeconds || len(times) >= maxSetupReps) {
			return env, times, nil
		}
		teardown(env)
		runtime.GC() // keep the discarded repetition out of peak_rss_mb
	}
}

const maxSetupReps = 15

// totalAlloc reads the cumulative heap allocation counter.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20) // not Linux: the runtime's own reservation
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// pingPong maps an unbounded op index onto n materialised steps replayed
// 0,1,…,n-1,n-2,…,1,0,1,… so consecutive ops always see neighbouring steps.
func pingPong(i, n int) int {
	if n == 1 {
		return 0
	}
	period := 2 * (n - 1)
	k := i % period
	if k >= n {
		k = period - k
	}
	return k
}

// materialise drains a synthetic stream into memory.
func materialise(p adaptive.SynthStreamParams) ([]map[string]*adaptive.Field, error) {
	st, err := adaptive.NewSynthStream(p)
	if err != nil {
		return nil, err
	}
	steps := make([]map[string]*adaptive.Field, 0, p.Steps)
	for len(steps) < p.Steps {
		s, err := st.Next()
		if err != nil {
			return nil, fmt.Errorf("synthetic stream step %d: %w", len(steps), err)
		}
		steps = append(steps, s)
	}
	return steps, nil
}

// provenance describes the machine and the run.
type provenance struct {
	Commit     string         `json:"commit"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Ops        int            `json:"ops,omitempty"`
	Sizes      sizes          `json:"sizes"`
	OpCounts   map[string]int `json:"op_counts,omitempty"`
	NProc      int            `json:"nproc"`
	GoMaxProcs int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	CPU        string         `json:"cpu"`
	// Oversubscribed says ranks or workers exceed cores: disregard the
	// wall-clock scaling metrics listed beside it.
	Oversubscribed   bool     `json:"oversubscribed"`
	WallClockScaling []string `json:"wall_clock_scaling"`
}

func newProvenance(cfg runConfig) provenance {
	p := provenance{
		Commit: "unknown", Seed: cfg.seed, Seconds: cfg.seconds, Ops: cfg.ops, Sizes: cfg.sz,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown",
		WallClockScaling: wallClockScaling,
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// The ranks workload runs two ranks and every engine runs GOMAXPROCS
	// workers; with fewer cores than either, wall-clock scaling is noise.
	p.Oversubscribed = p.NProc < 2 || p.GoMaxProcs > p.NProc
	return p
}
