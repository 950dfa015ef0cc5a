package main

import (
	"encoding/json"
	"slices"
)

// The benchmark's contract: workload names, metric names, units, directions
// and regression bounds. This table is the single source; BENCHMARK.json at
// the repository root is `go run ./bench spec` and the self-test fails when
// the two disagree.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// tailPct is the latency percentile reported as lat_tail_ms: one that
	// keeps at least ten samples beyond it at the op count the workload
	// reaches in one run.
	tailPct float64
}

var workloads = []workloadSpec{
	{wSZ, "the paper's path: System.Step on 128^3 fields with SZ; predict, quantize and Huffman do most of the work", 75},
	{wZFP, "same stream with ZFP: transform and rate-ladder probes work, SZ and Huffman do none, so an SZ change must read no change here", 75},
	{wRanks, "two ranks over loopback TCP on 32^3 fields: the only path where collectives and the commit barrier block a step", 90},
	{wService, "adaptived compress requests, 32^3 fields, 8 closed-loop clients: payload, queue, batch and wire dominate, the codec is a minority", 99},
	{wArchive, "archived rate-sliced fetches, Zipf steps, working set above the cache: index lookup, bit-prefix splice and cache work, no compression", 99},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// start is the bound the issue proposed for an end-to-end metric. compare
	// keeps it on every workload whose baseline spread fits inside it with
	// room to spare (boundFor).
	start float64
	// drivenBy lists the workloads whose own traced window measures a
	// per-layer metric. None means a layer probe, which every traced run
	// takes itself, on the same seeded field.
	drivenBy []string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd metrics are reported by every workload from the untraced run.
// Bound is what BENCHMARK.json carries and the driver applies: one number per
// metric, the share of the parent's median by which it may get worse, over
// ten seeds. The contract wants every workload's spread below a third of it,
// so it is three times the widest spread in bench/baseline.json, rounded up
// to a twentieth and capped at the contract's 0.25. On the reference box, a
// shared two-core VM whose speed moves by a sixth from second to second and
// by a quarter over minutes, that is the cap for everything but the ratio;
// README.md has the table. compare is stricter: it holds each (metric,
// workload) pair to boundFor.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, start: 0.15},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25, start: 0.07},
	{Name: "lat_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, start: 0.10},
	{Name: "lat_tail_ms", Unit: "ms", Better: lower, Bound: 0.25, start: 0.10},
	{Name: "decode_ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25, start: 0.07},
	{Name: "compression_ratio", Unit: "ratio", Better: higher, Bound: 0.15}, // repeatsExactly: compare holds it seed by seed
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: lower, Bound: 0.25, start: 0.10},
	{Name: "peak_rss_mb", Unit: "MiB", Better: lower, Bound: 0.25, start: 0.10},
}

// repeatsExactly names the metrics that are counts or ratios of counts over a
// fixed, seeded prefix of the work: at one seed they read the same on every
// run, so compare holds them seed by seed (exactTolerance) and ignores the
// spread across seeds, which is the inputs' doing, not the program's.
var repeatsExactly = map[string]bool{
	"compression_ratio":           true,
	"quality.spectrum_dev_pct":    true,
	"sz.bits_per_value":           true,
	"zfp.bits_per_value":          true,
	"zfp.probes_per_field":        true,
	"mpinet.collectives_per_step": true,
}

// drives reports whether the workload's own window measures the metric.
func (m metricSpec) drives(workload string) bool { return slices.Contains(m.drivenBy, workload) }

// borrowedBy reports whether a traced run of the workload takes the metric
// from a toy-size pass of another workload (main.go, addLayers) because no
// window or probe of its own measures it. Such a number only fills the row.
func (m metricSpec) borrowedBy(workload string) bool {
	return len(m.drivenBy) > 0 && !m.drives(workload)
}

func layerMetric(name, unit, better string, drivenBy ...string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better, drivenBy: drivenBy}
}

// The workload names, fixed: later issues cite them.
const (
	wSZ      = "insitu-sz"
	wZFP     = "insitu-zfp"
	wRanks   = "ranks-tcp"
	wService = "service-write"
	wArchive = "archive-read"
)

// perLayer metrics come from the traced run; names are <module>.<metric>.
// The trailing workload names are the rows of the layer → workload table: a
// metric is read from the traced run of a workload that drives it.
var perLayer = []metricSpec{
	layerMetric("grid.features_mbps", "MB/s", higher),
	layerMetric("grid.features_share", "ratio", lower, wSZ, wZFP),
	layerMetric("optimizer.optimize_us", "us", lower),
	layerMetric("core.calibrate_ms", "ms", lower),
	layerMetric("model.rate_err_pct", "%", lower, wSZ, wZFP),
	layerMetric("model.recalibrations", "count", lower, wSZ, wZFP),
	layerMetric("model.fallbacks", "count", lower, wSZ, wZFP),
	layerMetric("core.plan_ms", "ms", lower, wSZ, wZFP),
	layerMetric("core.compress_ms", "ms", lower, wSZ, wZFP),
	layerMetric("core.compress_share", "ratio", higher, wSZ, wZFP),
	layerMetric("core.decode_ms", "ms", lower, wSZ, wZFP),
	layerMetric("core.archive_write_ms", "ms", lower, wSZ, wZFP),
	layerMetric("core.archive_bytes_per_step", "B", lower, wSZ, wZFP),
	layerMetric("core.overhead_ratio", "ratio", lower, wSZ, wZFP),
	layerMetric("core.scale_eff.sz", "ratio", higher),
	layerMetric("core.scale_eff.zfp", "ratio", higher),
	layerMetric("core.merge_shards_ms", "ms", lower, wRanks),
	layerMetric("sz.compress_mbps", "MB/s", higher),
	layerMetric("sz.decompress_mbps", "MB/s", higher),
	layerMetric("sz.scan_mbps", "MB/s", higher),
	layerMetric("sz.bits_per_value", "bit", lower),
	layerMetric("zfp.compress_mbps", "MB/s", higher),
	layerMetric("zfp.decompress_mbps", "MB/s", higher),
	layerMetric("zfp.truncate_us", "us", lower),
	layerMetric("zfp.bits_per_value", "bit", lower),
	layerMetric("zfp.probes_per_field", "count", lower),
	layerMetric("huffman.encode_mbps", "MB/s", higher),
	layerMetric("huffman.decode_mbps", "MB/s", higher),
	layerMetric("pipeline.step_self_ms", "ms", lower, wSZ, wZFP),
	layerMetric("pipeline.trace_coverage", "ratio", higher, wSZ, wZFP),
	layerMetric("pipeline.trace_overhead_pct", "%", lower, wSZ, wZFP, wRanks, wService, wArchive),
	layerMetric("pipeline.rank_compute_ms_per_step", "ms", lower, wRanks),
	layerMetric("pipeline.rank_speedup", "ratio", higher, wRanks),
	layerMetric("mpinet.collectives_per_step", "count", lower, wRanks),
	layerMetric("mpinet.wait_ms_per_step", "ms", lower, wRanks),
	layerMetric("mpinet.wait_share", "ratio", lower, wRanks),
	layerMetric("mpinet.barrier_us", "us", lower),
	layerMetric("mpinet.allreduce_us", "us", lower),
	layerMetric("mpinet.allgather_slice_us", "us", lower),
	layerMetric("mpi.barrier_us", "us", lower),
	layerMetric("server.handler_ms_p50", "ms", lower, wService),
	layerMetric("server.engine_ms_p50", "ms", lower, wService),
	layerMetric("server.overhead_ms_p50", "ms", lower, wService),
	layerMetric("server.batches", "count", lower, wService),
	layerMetric("server.jobs_per_batch", "ratio", higher, wService),
	layerMetric("server.rejected", "count", lower, wService),
	layerMetric("server.payload_decode_us", "us", lower),
	layerMetric("server.payload_encode_us", "us", lower),
	layerMetric("client.wire_ms_p50", "ms", lower, wService, wArchive),
	layerMetric("client.retries", "count", lower, wService),
	layerMetric("archiveserve.cold_fetch_ms", "ms", lower),
	layerMetric("archiveserve.hot_fetch_ms", "ms", lower),
	layerMetric("archiveserve.revalidate_ms", "ms", lower),
	layerMetric("archiveserve.splice_ms", "ms", lower),
	layerMetric("archiveserve.index_build_ms", "ms", lower),
	layerMetric("archiveserve.cache_hit_ratio", "ratio", higher, wArchive),
	layerMetric("archiveserve.splices", "count", lower, wArchive),
	layerMetric("archiveserve.not_modified_share", "ratio", higher, wArchive),
	layerMetric("archiveserve.bytes_per_fetch", "B", lower, wArchive),
	layerMetric("quality.spectrum_dev_pct", "%", lower, wSZ, wZFP, wRanks),
	layerMetric("spectrum.compute_ms", "ms", lower),
	layerMetric("fft.fft3d_ms", "ms", lower),
	layerMetric("halo.find_ms", "ms", lower),
	layerMetric("nyx.generate_s", "s", lower),
}

// wallClockScaling lists the metrics that mean nothing when ranks or workers
// exceed cores. A traced run must report every layer, so they are still
// measured then; the provenance's oversubscribed flag says to disregard them.
var wallClockScaling = []string{"core.scale_eff.sz", "core.scale_eff.zfp", "pipeline.rank_speedup"}

// runSeconds is how long one run measures. 114 runs of (three set-ups +
// window + decode window + checks) have to fit the driver's 3420 s.
const runSeconds = 10

// benchmarkJSON renders the contract file.
func benchmarkJSON() []byte {
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layer, len(perLayer))
	for i, m := range perLayer {
		layers[i] = layer{m.Name, m.Unit, m.Better}
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   layers,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static table; cannot fail
	}
	return append(out, '\n')
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
