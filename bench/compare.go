package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Sets of runs, their medians and quartiles, and the verdict between two
// sets. `repeat` produces a set (bench/baseline.json is one); `compare`
// reads two sets, or one set holding alternating parent/change pairs.

// setRun is one child process's result line.
type setRun struct {
	Workload  string             `json:"workload"`
	Side      string             `json:"side"` // "change" (this binary) or "parent"
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

type quartiles struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3 − Q1) / median, the figure held against the bound.
	Spread float64 `json:"spread"`
}

type runSet struct {
	Claim      *string     `json:"claim"` // the benchmark itself claims no gain
	Provenance *provenance `json:"provenance,omitempty"`
	Runs       []setRun    `json:"runs"`
	// Summary[side][workload][metric].
	Summary map[string]map[string]map[string]quartiles `json:"summary"`
}

// quantiles4 is Python's statistics.quantiles(values, n=4): the quartiles
// the driver computes, so that spreads here mean what they mean there.
func quantiles4(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		return d[0], d[0], d[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func (s *runSet) summarise() {
	grouped := map[string]map[string]map[string][]float64{}
	for _, r := range s.Runs {
		if grouped[r.Side] == nil {
			grouped[r.Side] = map[string]map[string][]float64{}
		}
		if grouped[r.Side][r.Workload] == nil {
			grouped[r.Side][r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			grouped[r.Side][r.Workload][name] = append(grouped[r.Side][r.Workload][name], v)
		}
	}
	s.Summary = map[string]map[string]map[string]quartiles{}
	for side, byWorkload := range grouped {
		s.Summary[side] = map[string]map[string]quartiles{}
		for w, byMetric := range byWorkload {
			s.Summary[side][w] = map[string]quartiles{}
			for name, vals := range byMetric {
				q1, _, q3 := quantiles4(vals)
				q := quartiles{N: len(vals), Median: median(vals), Q1: q1, Q3: q3}
				if q.Median != 0 {
					q.Spread = (q3 - q1) / math.Abs(q.Median)
				}
				s.Summary[side][w][name] = q
			}
		}
	}
}

// runChild runs one workload in a fresh process of the given binary and
// parses the last line of its standard output.
func runChild(bin, workload string, seed uint64, seconds float64, traced bool) (*setRun, error) {
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg}
	cmd := exec.Command(bin, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s %s: no result line (%v): %v", bin, workload, runErr, err)
	}
	run := &setRun{Workload: workload, Seed: seed, Correct: line.Correct, Attempted: line.Attempted, Failed: line.Failed, Metrics: map[string]float64{}}
	for name, v := range line.Metrics {
		run.Metrics[name] = v.Value
	}
	return run, nil
}

// runAll is -workload all: every workload once, each in a fresh process.
func runAll(seed uint64, seconds float64, traced bool, out string) int {
	set, code := collect(1, seed, seconds, traced, "")
	if out != "" {
		if err := writeJSON(out, set); err != nil {
			fatalf("%v", err)
		}
	}
	return code
}

// collect runs n sets. With a parent binary, each (set, workload) runs both
// sides back to back, alternating which goes first (guide §8).
func collect(n int, seed uint64, seconds float64, traced bool, parent string) (*runSet, int) {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	// Children run on this machine with these settings.
	prov := newProvenance(runConfig{seed: seed, seconds: seconds, sz: fullSizes})
	set := &runSet{Provenance: &prov}
	code := 0
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			sides := []string{"change"}
			if parent != "" {
				sides = []string{"parent", "change"}
				if i%2 == 1 {
					sides = []string{"change", "parent"}
				}
			}
			for _, side := range sides {
				bin := self
				if side == "parent" {
					bin = parent
				}
				run, err := runChild(bin, w.Name, seed+uint64(i), seconds, traced)
				if err != nil {
					fatalf("%v", err)
				}
				run.Side = side
				if !run.Correct {
					code = 1
				}
				set.Runs = append(set.Runs, *run)
				fmt.Printf("%-14s %-6s seed=%-4d correct=%-5v", w.Name, side, run.Seed, run.Correct)
				for _, m := range []string{"ops_per_s", "lat_p50_ms", "setup_s"} {
					if v, ok := run.Metrics[m]; ok {
						fmt.Printf("  %s=%.4g", m, v)
					}
				}
				fmt.Println()
			}
		}
	}
	set.summarise()
	return set, code
}

func cmdRepeat(args []string) int {
	fs := flag.NewFlagSet("bench repeat", flag.ExitOnError)
	n := fs.Int("n", 5, "sets of runs; set i uses seed+i")
	seed := fs.Uint64("seed", 1, "first seed")
	seconds := fs.Float64("seconds", runSeconds, "length of each timed window")
	trace := fs.Bool("trace", false, "traced runs (per-layer metrics)")
	pairs := fs.String("pairs", "", "path of the parent commit's bench binary: run parent and change alternately")
	out := fs.String("out", "", "write the set (runs, medians, quartiles) here")
	fs.Parse(args)
	set, code := collect(*n, *seed, *seconds, *trace, *pairs)
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			fatalf("%v", err)
		}
	}
	printSummary(set)
	return code
}

func printSummary(set *runSet) {
	for _, side := range slices.Sorted(maps.Keys(set.Summary)) {
		for _, w := range workloads {
			for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
				q, ok := set.Summary[side][w.Name][m.Name]
				if !ok || m.borrowedBy(w.Name) {
					continue
				}
				fmt.Printf("%-6s %-14s %-30s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f", side, w.Name, m.Name, q.Median, q.Q1, q.Q3, q.Spread)
				if m.Bound > 0 {
					fmt.Printf("  bound %.2f", m.Bound)
				}
				fmt.Println()
			}
		}
	}
}

// baselineJSON is `repeat -n 10` on the code this benchmark was defined on:
// the spreads the per-workload bounds are derived from.
//
//go:embed baseline.json
var baselineJSON []byte

var baseline = sync.OnceValue(func() *runSet {
	var s runSet
	if err := json.Unmarshal(baselineJSON, &s); err != nil {
		panic("bench/baseline.json: " + err.Error()) // checked in beside this file
	}
	s.summarise()
	return &s
})

// exactTolerance is the bound on a metric that repeats exactly at one seed
// (the issue's −0.1 % on compression_ratio), held seed by seed.
const exactTolerance = 0.001

// boundFor is the share of the base median by which compare lets an
// end-to-end metric get worse on one workload: the issue's starting bound
// where twice the baseline's own spread on that workload fits inside it,
// twice that spread otherwise, and never more than BENCHMARK.json's bound for
// the metric, which has to cover the noisiest workload. Per-layer metrics
// have no bound.
func boundFor(m metricSpec, workload string) float64 {
	if repeatsExactly[m.Name] {
		return exactTolerance
	}
	spread := baseline().Summary["change"][workload][m.Name].Spread
	return min(max(m.start, 2*spread), m.Bound)
}

// verdict is one row of a comparison.
type verdict struct {
	Metric, Workload string
	Base, New        quartiles
	Ratio            float64 // new median / base median
	Bound            float64
	Verdict          string
}

// judge compares one (metric, workload) pair. worse is the share of the
// base median by which the new median is worse, direction applied.
//
//   - unresolved: either side's own spread is wider than the bound, so the
//     runs cannot tell a regression from noise;
//   - regressed: worse by more than the bound;
//   - improved: better by more than the base's own spread, which takes more
//     than one base run to know (and, for paired sets, winning at least nine
//     tenths of the pairs);
//   - unchanged otherwise.
func judge(m metricSpec, bound float64, base, cur quartiles, winShare float64) verdict {
	v := verdict{Metric: m.Name, Base: base, New: cur, Bound: bound, Ratio: cur.Median / base.Median}
	worse := (cur.Median - base.Median) / math.Abs(base.Median)
	if m.Better == higher {
		worse = -worse
	}
	switch {
	case bound > 0 && base.N > 1 && math.Max(base.Spread, cur.Spread) > bound:
		v.Verdict = "unresolved"
	case bound > 0 && worse > bound:
		v.Verdict = "regressed"
	case base.N > 1 && -worse > base.Spread && -worse > 0 && (math.IsNaN(winShare) || winShare >= 0.9):
		v.Verdict = "improved"
	default:
		v.Verdict = "unchanged"
	}
	return v
}

// judgeExact compares a metric that repeats exactly at one seed. Its spread
// across seeds belongs to the inputs, so the two sides are held seed by seed:
// regressed when the new side is worse by more than exactTolerance on any
// seed both ran, improved when it is better on at least nine tenths of them,
// unresolved when they share no seed.
func judgeExact(m metricSpec, base, cur quartiles, baseBySeed, curBySeed map[uint64]float64) verdict {
	v := verdict{Metric: m.Name, Base: base, New: cur, Bound: exactTolerance, Ratio: cur.Median / base.Median}
	shared, better, regressed := 0, 0, false
	for seed, b := range baseBySeed {
		c, ok := curBySeed[seed]
		if !ok {
			continue
		}
		shared++
		gain := (c - b) / math.Abs(b)
		if m.Better == lower {
			gain = -gain
		}
		if gain > 0 {
			better++
		}
		regressed = regressed || -gain > exactTolerance
	}
	switch {
	case shared == 0:
		v.Verdict = "unresolved"
	case regressed:
		v.Verdict = "regressed"
	case 10*better >= 9*shared:
		v.Verdict = "improved"
	default:
		v.Verdict = "unchanged"
	}
	return v
}

// bySeed is one side's value of a metric on a workload, per seed.
func (s *runSet) bySeed(side, workload, metric string) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Side == side && r.Workload == workload {
			out[r.Seed] = v
		}
	}
	return out
}

// failures is the issue's fail_ratio, whose bound is "must be 0": the checks
// one side's runs of a workload failed, and whether any run was incorrect.
func (s *runSet) failures(side, workload string) (failed int, incorrect bool) {
	for _, r := range s.Runs {
		if r.Side == side && r.Workload == workload {
			failed += r.Failed
			incorrect = incorrect || !r.Correct
		}
	}
	return failed, incorrect
}

// compareSets judges every (metric, workload) pair both sets measured, and
// first, per workload, the failed checks: timings of a run whose outputs were
// wrong carry no claim, so any failure on either side is a regressed row.
func compareSets(base, cur *runSet, baseSide, curSide string) []verdict {
	var out []verdict
	for _, w := range workloads {
		bf, bBad := base.failures(baseSide, w.Name)
		cf, cBad := cur.failures(curSide, w.Name)
		v := verdict{Metric: "failed", Workload: w.Name, Verdict: "unchanged", Ratio: math.NaN(),
			Base: quartiles{Median: float64(bf)}, New: quartiles{Median: float64(cf)}}
		if bf > 0 || cf > 0 || bBad || cBad {
			v.Verdict = "regressed"
		}
		out = append(out, v)
		for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
			if m.borrowedBy(w.Name) {
				continue
			}
			b, okB := base.Summary[baseSide][w.Name][m.Name]
			c, okC := cur.Summary[curSide][w.Name][m.Name]
			if !okB || !okC {
				continue
			}
			if repeatsExactly[m.Name] {
				v = judgeExact(m, b, c, base.bySeed(baseSide, w.Name, m.Name), cur.bySeed(curSide, w.Name, m.Name))
			} else {
				win := math.NaN()
				if base == cur {
					win = winShare(base, w.Name, m)
				}
				v = judge(m, boundFor(m, w.Name), b, c, win)
			}
			v.Workload = w.Name
			out = append(out, v)
		}
	}
	return out
}

// winShare is the share of parent/change pairs the change wins on one
// metric, ties counting for neither side.
func winShare(set *runSet, workload string, m metricSpec) float64 {
	var parent, change []float64
	for _, r := range set.Runs {
		if v, ok := r.Metrics[m.Name]; ok && r.Workload == workload {
			if r.Side == "parent" {
				parent = append(parent, v)
			} else {
				change = append(change, v)
			}
		}
	}
	wins, pairs := 0, 0
	for i := 0; i < len(parent) && i < len(change); i++ {
		if parent[i] == change[i] {
			continue
		}
		pairs++
		if (change[i] > parent[i]) == (m.Better == higher) {
			wins++
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(wins) / float64(pairs)
}

func readSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.summarise()
	return &s, nil
}

// cmdCompare prints one row per (metric, workload): base, new, the ratio
// with its base, the bound and the verdict. It exits 1 on any regressed or
// unresolved row.
func cmdCompare(args []string) int {
	if len(args) < 1 || len(args) > 2 {
		fatalf("usage: bench compare BASE.json NEW.json | bench compare PAIRS.json")
	}
	base, err := readSet(args[0])
	if err != nil {
		fatalf("%v", err)
	}
	cur, baseSide, curSide := base, "parent", "change"
	if len(args) == 2 {
		if cur, err = readSet(args[1]); err != nil {
			fatalf("%v", err)
		}
		baseSide = "change"
	}
	code := 0
	fmt.Printf("%-14s %-30s %12s %12s %16s %6s  %s\n", "workload", "metric", "base", "new", "ratio (of base)", "bound", "verdict")
	for _, v := range compareSets(base, cur, baseSide, curSide) {
		bound := "-"
		if v.Metric == "failed" {
			bound = "0"
		} else if v.Bound > 0 {
			bound = fmt.Sprintf("%.3f", v.Bound)
		}
		fmt.Printf("%-14s %-30s %12.6g %12.6g %7.4f of %-6.4g %6s  %s\n", v.Workload, v.Metric, v.Base.Median, v.New.Median, v.Ratio, v.Base.Median, bound, v.Verdict)
		if v.Verdict == "regressed" || v.Verdict == "unresolved" {
			code = 1
		}
	}
	return code
}
