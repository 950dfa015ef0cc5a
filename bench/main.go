// Command bench is the repository's benchmark: five workloads, one per path
// a user can drive, each reporting end-to-end metrics from an untraced run
// and per-layer metrics from a traced one. BENCHMARK.json at the repository
// root is its contract; bench/README.md says why each workload exists and
// how to land a claim against it.
//
//	go run ./bench -workload insitu-sz -seed 1 [-seconds 10] [-trace 1] [-out file.json]
//	go run ./bench -workload all -seed 1 -out set.json
//	go run ./bench repeat -n 5 -out bench/baseline.json
//	go run ./bench compare A.json B.json
//	go run ./bench spec > BENCHMARK.json
//
// One invocation measures one workload in its own process. Everything is
// measured from outside the program: by timing calls into its public
// functions and by wrapping the interfaces it already accepts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "spec":
			os.Stdout.Write(benchmarkJSON())
			return
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		case "repeat":
			os.Exit(cmdRepeat(os.Args[2:]))
		}
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload name, or all (each in a fresh process)")
	seed := fs.Uint64("seed", 1, "input seed: same seed, same inputs")
	seconds := fs.Float64("seconds", runSeconds, "length of the timed window")
	ops := fs.Int("ops", 0, "end the window after this many ops instead of -seconds (counts then repeat exactly)")
	trace := fs.String("trace", "0", "1: traced run, reports the per-layer metrics; 0: untraced, reports end-to-end")
	out := fs.String("out", "", "also write the full report (provenance, samples, spans) to this file")
	fs.Parse(os.Args[1:])

	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		fatalf("-trace %q: want 0 or 1", *trace)
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, traced, *out))
	}
	if _, ok := findWorkload(*workload); !ok {
		fatalf("unknown workload %q; BENCHMARK.json lists them", *workload)
	}
	rep, err := runOne(runConfig{workload: *workload, seed: *seed, seconds: *seconds, ops: *ops, trace: traced, sz: fullSizes})
	if err != nil {
		fatalf("%v", err)
	}
	rep.print(os.Stdout)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fatalf("%v", err)
		}
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the sample count behind a percentile or median.
	Samples int `json:"samples,omitempty"`
	// Source says where a per-layer number was measured: "window" (the
	// workload's own), "probe", or "toy:<workload>" (see addLayers).
	Source string `json:"source,omitempty"`
}

// report is one run. Its first four fields are the line the driver reads.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	Workload   string              `json:"workload"`
	Trace      bool                `json:"trace"`
	Claim      *string             `json:"claim"` // this benchmark claims no gain
	Provenance provenance          `json:"provenance"`
	Problems   []string            `json:"problems,omitempty"`
	SpanStats  map[string]spanStat `json:"span_summary,omitempty"`
	Spans      []span              `json:"spans,omitempty"`
}

// maxSpansKept bounds the raw spans written to -out.
const maxSpansKept = 4096

func runWorkload(cfg runConfig) (*outcome, error) {
	switch cfg.workload {
	case wSZ:
		return runInsitu(cfg, "sz")
	case wZFP:
		return runInsitu(cfg, "zfp")
	case wRanks:
		return runRanks(cfg)
	case wService:
		return runService(cfg)
	case wArchive:
		return runArchive(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// scratchRoot holds everything a run leaves on disk; .gitignore names it.
const scratchRoot = ".bench_build"

// toyOps is the window length, in ops, of the toy-size passes.
const toyOps = 8

func runOne(cfg runConfig) (*report, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	// Scratch files stay inside the checkout, under the build directory.
	if cfg.tmp == "" {
		cfg.tmp = scratchRoot
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.tmp, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	spec, _ := findWorkload(cfg.workload)
	o, err := runWorkload(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep := &report{
		Attempted: o.attempted, Failed: o.failed, Problems: o.problems,
		Metrics:  map[string]value{},
		Workload: cfg.workload, Trace: cfg.trace, Provenance: newProvenance(cfg),
	}
	rep.Provenance.OpCounts = o.counts
	e2e, samples := o.endToEndMetrics(spec)

	if !cfg.trace {
		for _, m := range endToEnd {
			rep.Metrics[m.Name] = value{Value: e2e[m.Name], Unit: m.Unit, Samples: samples[m.Name]}
		}
	} else if err := rep.addLayers(cfg, o); err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	for name, v := range rep.Metrics {
		if !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0) {
			continue
		}
		if rep.Correct {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
		// A window whose ops all failed has nothing to measure; the line
		// still has to say correct: false, and JSON has no NaN.
		v.Value = 0
		rep.Metrics[name] = v
		rep.Problems = append(rep.Problems, "metric "+name+" could not be measured")
	}
	return rep, nil
}

// addLayers fills a traced run's report. The contract has one list of
// per-layer metrics and asks every traced run for all of it, so each metric
// comes from where spec.go says it is measured: this workload's own window, a
// layer probe, or — for a layer this workload does not drive — a toy-size
// pass of the first workload that does (compare skips those rows).
func (rep *report) addLayers(cfg runConfig, o *outcome) error {
	probes := map[string]float64{}
	if err := runProbes(cfg, probes); err != nil {
		return err
	}
	toys := map[string]map[string]float64{}
	for _, m := range perLayer {
		from, source := probes, "probe"
		if m.drives(cfg.workload) {
			from, source = o.layer, "window"
		} else if m.borrowedBy(cfg.workload) {
			other := m.drivenBy[0]
			if toys[other] == nil {
				toy := cfg
				toy.workload, toy.sz, toy.ops = other, toySizes, toyOps
				to, err := runWorkload(toy)
				if err != nil {
					return fmt.Errorf("toy pass of %s: %w", other, err)
				}
				rep.Attempted += to.attempted
				rep.Failed += to.failed
				rep.Problems = append(rep.Problems, to.problems...)
				toys[other] = to.layer
			}
			from, source = toys[other], "toy:"+other
		}
		v, ok := from[m.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured (%s)", m.Name, source)
		}
		rep.Metrics[m.Name] = value{Value: v, Unit: m.Unit, Source: source}
	}
	if o.spans != nil {
		rep.SpanStats = o.spans.summary()
		rep.Spans = o.spans.spans[:min(len(o.spans.spans), maxSpansKept)]
	}
	// At toy size a step is a millisecond and the ratio is noise.
	if cov, ok := o.layer["pipeline.trace_coverage"]; ok && cfg.sz.Name == "full" && (cov < 0.9 || cov > 1.1) {
		rep.Failed++
		rep.Problems = append(rep.Problems, fmt.Sprintf("pipeline.trace_coverage %.3f outside [0.9, 1.1]: the decomposed step no longer mirrors Step", cov))
	}
	return nil
}

// print writes every metric by name with its unit, then the one-line JSON
// object the driver reads, last.
func (r *report) print(w *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d trace=%v gomaxprocs=%d\n", r.Workload, r.Provenance.Seed, r.Trace, r.Provenance.GoMaxProcs)
	for _, name := range names {
		v := r.Metrics[name]
		note := ""
		if v.Samples > 0 {
			note = fmt.Sprintf("  (n=%d)", v.Samples)
		}
		if v.Source != "" && v.Source != "window" {
			note += "  [" + v.Source + "]"
		}
		fmt.Fprintf(w, "%-36s %14.6g %-6s%s\n", name, v.Value, v.Unit, note)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "# FAILED: %s\n", p)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for name, v := range r.Metrics {
		line.Metrics[name] = metric{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", data)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
