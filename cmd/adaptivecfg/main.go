// Command adaptivecfg runs the paper's adaptive compression pipeline on a
// snapshot file: calibrate the rate model, derive the quality budget, plan
// per-partition error bounds, compress adaptively, and report ratios
// against the static baseline at the same budget.
//
// Usage:
//
//	adaptivecfg -snapshot data/snapshot_z42.nyx -field baryon_density \
//	            -partition 16 [-codec sz] [-avg-eb 0.1] [-halo] [-save out.acfd]
//
// When -avg-eb is omitted the budget is derived from the power-spectrum
// quality target (±1 % for k < 10 at 2σ confidence, the paper's setting).
// -codec selects the compression backend from the codec registry (sz by
// default; zfp approximates each planned bound with its fixed-rate search).
//
// With -steps N (N > 1) the command switches to the streaming pipeline: it
// evolves the loaded snapshot N timesteps (deterministic synthetic drift),
// calibrates once, recalibrates per -policy/-drift, and reports per-step
// ratios and the run's calibration amortization. -save then writes an
// archive v3 multi-snapshot stream instead of a single-field archive.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/adaptive"
	"repro/adaptive/codecs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adaptivecfg: ")
	var (
		snapPath  = flag.String("snapshot", "", "snapshot file from nyxgen (required)")
		fieldName = flag.String("field", adaptive.FieldBaryonDensity, "field to compress")
		partition = flag.Int("partition", 16, "partition brick dimension")
		codecName = flag.String("codec", string(codecs.SZ),
			fmt.Sprintf("compression backend (%s)", idList()))
		avgEB    = flag.Float64("avg-eb", 0, "average error-bound budget (0 = derive from spectrum target)")
		tol      = flag.Float64("tolerance", 0.01, "power-spectrum tolerance for the derived budget")
		useHalo  = flag.Bool("halo", false, "apply the halo-finder mass budget (density fields)")
		savePath = flag.String("save", "", "write the adaptive archive to this path")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = all cores)")
		steps    = flag.Int("steps", 1, "stream this many evolving timesteps through the pipeline (1 = single-snapshot mode)")
		drift    = flag.Float64("drift", 0.25, "relative feature drift that triggers recalibration (streaming mode)")
		policy   = flag.String("policy", "drift", "recalibration policy: drift|once|every (streaming mode)")
	)
	flag.Parse()
	if *snapPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	ctx := context.Background()

	snap, err := adaptive.ReadSnapshotFile(*snapPath)
	if err != nil {
		log.Fatal(err)
	}
	f, ok := snap.Fields[*fieldName]
	if !ok {
		log.Fatalf("field %q not in snapshot (have %v)", *fieldName, keys(snap.Fields))
	}

	if *steps > 1 {
		runStream(ctx, *fieldName, f, *partition, *workers, *codecName, *steps, *drift, *policy, *avgEB, *savePath)
		return
	}

	sys, err := adaptive.New(
		adaptive.WithPartitionDim(*partition),
		adaptive.WithWorkers(*workers),
		adaptive.WithCodec(*codecName),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("calibrating rate model on %s (%s) via %s...\n", *fieldName, f, sys.Codec())
	cal, err := sys.Calibrate(ctx, f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  rate model: b = C·eb^%.3f, C_m = %.3f %+.3f·ln(mean), R²=%.3f\n",
		cal.Model.Exponent, cal.Model.Alpha, cal.Model.Beta, cal.Model.FitR2)

	budget := *avgEB
	if budget <= 0 {
		budget, err = adaptive.SpectrumBudget(f, adaptive.BudgetOptions{
			Tolerance: *tol, Workers: *workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  spectrum-derived budget: avg eb = %.4g\n", budget)
	}

	opts := adaptive.PlanOptions{AvgEB: budget}
	if *useHalo {
		p, err := adaptive.PartitionerForBrickDim(f.Nx, *partition)
		if err != nil {
			log.Fatal(err)
		}
		hb, err := adaptive.HaloBudget(f, adaptive.DefaultHaloConfig(), 0.01, 1.0, p)
		if err != nil {
			log.Fatal(err)
		}
		opts.Halo = &hb.HaloConstraint
		fmt.Printf("  halo budget: %d halos, mass budget %.4g\n",
			hb.Catalog.Count(), hb.MassBudget)
	}

	plan, err := sys.Plan(ctx, f, cal, opts)
	if err != nil {
		log.Fatal(err)
	}
	var ebStats adaptive.Moments
	for _, eb := range plan.EBs {
		ebStats.Add(eb)
	}
	fmt.Printf("  plan: %d partitions, eb ∈ [%.4g, %.4g], mean %.4g\n",
		len(plan.EBs), ebStats.Min(), ebStats.Max(), ebStats.Mean())
	fmt.Printf("  predicted improvement over static: %+.1f%%\n",
		plan.Predicted.PredictedImprovement()*100)

	adaptiveCF, err := sys.CompressAdaptive(ctx, f, plan)
	if err != nil {
		log.Fatal(err)
	}
	static, err := sys.CompressStatic(ctx, f, budget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("result:\n")
	fmt.Printf("  static  (eb=%.4g): ratio %.2f, %.3f bits/value\n",
		budget, static.Ratio(), static.BitRate())
	fmt.Printf("  adaptive          : ratio %.2f, %.3f bits/value (%+.1f%%)\n",
		adaptiveCF.Ratio(), adaptiveCF.BitRate(), (adaptiveCF.Ratio()/static.Ratio()-1)*100)

	if *savePath != "" {
		if err := os.WriteFile(*savePath, adaptiveCF.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  archive written to %s\n", *savePath)
	}
}

// runStream drives the streaming pipeline: the loaded field is evolved
// into a deterministic synthetic run and compressed step by step with
// calibration reuse.
func runStream(ctx context.Context, name string, f *adaptive.Field, partition, workers int, codecName string, steps int, drift float64, policyName string, avgEB float64, savePath string) {
	var pol adaptive.Policy
	switch policyName {
	case "drift":
		pol = adaptive.DriftTriggered
		// The library treats 0 as "use the default", so a literal
		// -drift 0 would silently become 0.25; catch it here instead.
		if drift <= 0 {
			log.Fatalf("-drift must be positive with -policy drift (use -policy every to recalibrate on every step)")
		}
	case "once":
		pol = adaptive.CalibrateOnce
	case "every":
		pol = adaptive.CalibrateEveryStep
	default:
		log.Fatalf("unknown policy %q (want drift|once|every)", policyName)
	}
	sysOpts := []adaptive.Option{
		adaptive.WithPartitionDim(partition),
		adaptive.WithWorkers(workers),
		adaptive.WithCodec(codecName),
		adaptive.WithPolicy(pol),
		adaptive.WithDriftThreshold(drift),
		adaptive.WithOnStep(func(st *adaptive.StepStats) {
			fs := st.Fields[0]
			marker := ""
			if fs.Recalibrated {
				marker = "  [recalibrated]"
			}
			fmt.Printf("  step %2d: ratio %6.2f  %6.3f bits/value  drift %5.1f%%%s\n",
				st.Step, st.Ratio(), st.BitRate(), fs.Drift*100, marker)
		}),
	}
	if avgEB > 0 {
		sysOpts = append(sysOpts, adaptive.WithFieldBudget(name, avgEB))
	}
	var out *os.File
	var writer *adaptive.StreamWriter
	if savePath != "" {
		var err error
		out, err = os.Create(savePath)
		if err != nil {
			log.Fatal(err)
		}
		if writer, err = adaptive.NewStreamWriter(out); err != nil {
			log.Fatal(err)
		}
		sysOpts = append(sysOpts, adaptive.WithStreamWriter(writer))
	}

	src, err := adaptive.NewSynthStreamFrom(map[string]*adaptive.Field{name: f}, adaptive.SynthStreamParams{
		Steps: steps, Fields: []string{name},
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := adaptive.New(sysOpts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streaming %d steps of %s (%s) via %s, policy %s (drift threshold %.0f%%):\n",
		steps, name, f, sys.Codec(), pol, drift*100)
	run, err := sys.Run(ctx, src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run summary:\n")
	fmt.Printf("  ratio %.2f, %.3f bits/value over %d steps\n", run.Ratio(), run.BitRate(), len(run.Steps))
	fmt.Printf("  %d (re)calibrations for %d field-steps (%.2f fits/step amortized)\n",
		run.Recalibrations, len(run.Steps), float64(run.Recalibrations)/float64(len(run.Steps)))
	fmt.Printf("  phase seconds: calibrate %.3f, plan %.3f, compress %.3f, write %.3f\n",
		run.CalibrateSeconds, run.PlanSeconds, run.CompressSeconds, run.WriteSeconds)
	fmt.Printf("  compress throughput: %.1f MB/s of field data (per-core work rate)\n",
		run.CompressMBPerSec())

	if writer != nil {
		if err := writer.Close(); err != nil {
			log.Fatal(err)
		}
		info, _ := out.Stat()
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  stream archive (%d steps, %d bytes) written to %s\n",
			steps, info.Size(), savePath)
	}
}

func keys(m map[string]*adaptive.Field) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func idList() string {
	ids := codecs.IDs()
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = string(id)
	}
	return strings.Join(names, "|")
}
