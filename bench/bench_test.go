package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"

	"repro/adaptive"
)

// The self-test runs every workload at toy sizes with fixed op counts: it
// checks the contract (names, units, BENCHMARK.json), not the numbers.

func toyConfig(t *testing.T, workload string, seed uint64, trace bool) runConfig {
	t.Helper()
	return runConfig{workload: workload, seed: seed, ops: toyOps, trace: trace, sz: toySizes, tmp: t.TempDir()}
}

func mustRun(t *testing.T, cfg runConfig) *report {
	t.Helper()
	rep, err := runOne(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if !rep.Correct {
		t.Fatalf("%s: %d of %d checks failed: %v", cfg.workload, rep.Failed, rep.Attempted, rep.Problems)
	}
	return rep
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the table in spec.go; regenerate it with `go run ./bench spec > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// sameNames fails unless the report carries exactly the listed metrics.
func sameNames(t *testing.T, rep *report, want []metricSpec) {
	t.Helper()
	for _, m := range want {
		v, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("%s trace=%v: metric %s missing", rep.Workload, rep.Trace, m.Name)
		} else if v.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", rep.Workload, m.Name, v.Unit, m.Unit)
		}
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s trace=%v: %d metrics reported, %d listed", rep.Workload, rep.Trace, len(rep.Metrics), len(want))
	}
}

func TestUntracedRunsReportEndToEndAndRepeat(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		a := mustRun(t, toyConfig(t, w.Name, 1, false))
		b := mustRun(t, toyConfig(t, w.Name, 1, false))
		sameNames(t, a, endToEnd)
		if a.Attempted != b.Attempted {
			t.Errorf("%s: %d checks then %d with the same seed and -ops", w.Name, a.Attempted, b.Attempted)
		}
		if x, y := a.Metrics["compression_ratio"].Value, b.Metrics["compression_ratio"].Value; x != y {
			t.Errorf("%s: compression_ratio %v then %v on the same seed", w.Name, x, y)
		}
		for _, m := range endToEnd {
			if a.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics must never be 0", w.Name, m.Name, a.Metrics[m.Name].Value)
			}
		}
	}
}

func TestTracedRunsReportEveryLayer(t *testing.T) {
	t.Parallel()
	listed := map[string]bool{}
	for _, m := range perLayer {
		listed[m.Name] = true
	}
	// Each workload's own traced window emits listed names only.
	for _, w := range workloads {
		o, err := runWorkload(toyConfig(t, w.Name, 1, true))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if o.failed > 0 {
			t.Errorf("%s: %d checks failed: %v", w.Name, o.failed, o.problems)
		}
		for name := range o.layer {
			if !listed[name] {
				t.Errorf("%s emits %s, which BENCHMARK.json does not list", w.Name, name)
			}
		}
		for _, m := range perLayer {
			if _, ok := o.layer[m.Name]; ok != m.drives(w.Name) {
				t.Errorf("%s: spec.go says drives(%s) = %v, the traced window says %v", w.Name, m.Name, m.drives(w.Name), ok)
			}
		}
	}
	// Quality figures and counters repeat exactly on the same seed.
	first, err := runWorkload(toyConfig(t, "insitu-sz", 1, true))
	if err != nil {
		t.Fatal(err)
	}
	again, err := runWorkload(toyConfig(t, "insitu-sz", 1, true))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"quality.spectrum_dev_pct", "model.recalibrations", "model.fallbacks", "core.archive_bytes_per_step"} {
		if x, y := first.layer[name], again.layer[name]; x != y || x == 0 && name == "quality.spectrum_dev_pct" {
			t.Errorf("%s: %v then %v on the same seed", name, x, y)
		}
	}
	// A whole traced run — window, probes, toy passes of the others —
	// reports every listed layer, whichever workload it is for.
	a := mustRun(t, toyConfig(t, "insitu-zfp", 1, true))
	b := mustRun(t, toyConfig(t, "archive-read", 1, true))
	sameNames(t, a, perLayer)
	sameNames(t, b, perLayer)
	// Counts repeat exactly on the same seed: both runs took these from the
	// same probes and the same toy pass of ranks-tcp.
	for _, name := range []string{"mpinet.collectives_per_step", "sz.bits_per_value", "zfp.probes_per_field", "zfp.bits_per_value"} {
		if x, y := a.Metrics[name].Value, b.Metrics[name].Value; x != y {
			t.Errorf("%s: %v then %v on the same seed", name, x, y)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	gen := func(seed uint64) []float32 {
		steps, err := materialise(adaptive.SynthStreamParams{
			Base: adaptive.SynthParams{N: 16, Seed: seed}, Steps: 2, Fields: []string{adaptive.FieldBaryonDensity},
		})
		if err != nil {
			t.Fatal(err)
		}
		return steps[1][adaptive.FieldBaryonDensity].Data
	}
	if !slices.Equal(gen(1), gen(1)) {
		t.Error("the same seed gave different inputs")
	}
	if slices.Equal(gen(1), gen(2)) {
		t.Error("a different seed gave the same inputs")
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	// Five runs of insitu-sz, seeds 1–5; ratio stands for compression_ratio.
	set := func(opsPerS, ratio float64) *runSet {
		s := &runSet{}
		for i := 0; i < 5; i++ {
			jitter := 1 + 0.002*float64(i)
			s.Runs = append(s.Runs, setRun{Workload: wSZ, Side: "change", Seed: uint64(1 + i), Correct: true, Attempted: 100,
				Metrics: map[string]float64{"ops_per_s": opsPerS * jitter, "lat_p50_ms": 100 * jitter, "compression_ratio": ratio + float64(i)}})
		}
		s.summarise()
		return s
	}
	verdicts := func(base, cur *runSet) map[string]string {
		out := map[string]string{}
		for _, v := range compareSets(base, cur, "change", "change") {
			if v.Workload == wSZ {
				out[v.Metric] = v.Verdict
			}
		}
		return out
	}
	// The issue's example: −20 % throughput against its −7 % bound.
	ops := endToEnd[1]
	base, cur := set(10, 11).Summary["change"][wSZ]["ops_per_s"], set(8, 11).Summary["change"][wSZ]["ops_per_s"]
	if v := judge(ops, ops.start, base, cur, math.NaN()); ops.Name != "ops_per_s" || v.Verdict != "regressed" {
		t.Errorf("%s −20 %% against a bound of %v was judged %q", ops.Name, ops.start, v.Verdict)
	}
	// Between sets the bound is the one the baseline gives this workload.
	bound := boundFor(ops, wSZ)
	got := verdicts(set(10, 11), set(10*(1-bound-0.02), 11))
	for metric, want := range map[string]string{"ops_per_s": "regressed", "lat_p50_ms": "unchanged", "compression_ratio": "unchanged", "failed": "unchanged"} {
		if got[metric] != want {
			t.Errorf("ops_per_s two points beyond its bound of %.3f, the rest the same: %s was judged %q, want %q", bound, metric, got[metric], want)
		}
	}
	if v := verdicts(set(10, 11), set(10*(1-bound+0.02), 11))["ops_per_s"]; v != "unchanged" {
		t.Errorf("ops_per_s two points inside its bound of %.3f was judged %q", bound, v)
	}
	if v := verdicts(set(10, 11), set(12, 11))["ops_per_s"]; v != "improved" {
		t.Errorf("a 20 %% throughput gain was judged %q", v)
	}
	wide := set(10, 11)
	wide.Runs[0].Metrics["ops_per_s"], wide.Runs[1].Metrics["ops_per_s"] = 5, 15
	wide.summarise()
	if v := verdicts(wide, wide)["ops_per_s"]; v != "unresolved" {
		t.Errorf("a spread wider than the bound was judged %q", v)
	}

	// compression_ratio repeats exactly at one seed, so it is held seed by
	// seed: half a percent lost on one seed is a regression although the
	// spread across seeds is forty times that.
	lossy := set(10, 11)
	lossy.Runs[2].Metrics["compression_ratio"] *= 0.995
	lossy.summarise()
	if v := verdicts(set(10, 11), lossy)["compression_ratio"]; v != "regressed" {
		t.Errorf("compression_ratio −0.5 %% on one seed was judged %q", v)
	}
	other := set(10, 11)
	for i := range other.Runs {
		other.Runs[i].Seed += 100
	}
	if v := verdicts(set(10, 11), other)["compression_ratio"]; v != "unresolved" {
		t.Errorf("compression_ratio on disjoint seeds was judged %q", v)
	}

	// A run whose outputs were wrong carries no claim, whatever its timings.
	wrong := set(12, 11)
	wrong.Runs[0].Correct, wrong.Runs[0].Failed = false, 3
	if v := verdicts(set(10, 11), wrong)["failed"]; v != "regressed" {
		t.Errorf("three failed checks on the new side were judged %q", v)
	}
}

func TestBoundsComeFromTheBaseline(t *testing.T) {
	for _, w := range workloads {
		for _, m := range endToEnd {
			q, ok := baseline().Summary["change"][w.Name][m.Name]
			if !ok {
				t.Fatalf("baseline.json has no %s on %s", m.Name, w.Name)
			}
			b := boundFor(m, w.Name)
			if b <= 0 || b > m.Bound {
				t.Errorf("%s on %s: bound %v outside (0, %v]", m.Name, w.Name, b, m.Bound)
			}
			// The driver accepts the benchmark only while every spread stays
			// inside the bound BENCHMARK.json carries.
			if m.Name != "setup_s" && q.Spread > m.Bound {
				t.Errorf("%s on %s: baseline spread %.3f above BENCHMARK.json's bound %v", m.Name, w.Name, q.Spread, m.Bound)
			}
		}
	}
}

func TestAWindowWithoutOpsIsReported(t *testing.T) {
	o := newOutcome()
	o.fail("every op failed")
	m, _ := o.endToEndMetrics(workloads[0]) // must not panic
	if v := m["ops_per_s"]; !math.IsNaN(v) {
		t.Errorf("ops_per_s of an empty window = %v, want NaN for runOne to zero under correct: false", v)
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quantiles4([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}
