// In situ pipeline example: a simulated multi-rank cosmology run dumping
// several snapshots. Each dump runs the paper's in situ protocol — rank-
// local feature scan, one gather of the per-partition features, the same
// error-bound plan on every rank, rank-local compression — and the example
// reports per-phase timings, the overhead ratio, and ratio/quality per
// snapshot.
//
// Run with: go run ./examples/insitu
package main

import (
	"context"
	"fmt"
	"log"

	"repro/adaptive"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	const (
		gridN  = 64
		bricks = 16
		ranks  = 8
	)
	sys, err := adaptive.New(adaptive.WithPartitionDim(bricks))
	if err != nil {
		log.Fatal(err)
	}

	// Calibrate once on the first snapshot — the paper's offline step.
	first, err := adaptive.GenerateSnapshot(adaptive.SynthParams{N: gridN, Seed: 3, Redshift: 54})
	if err != nil {
		log.Fatal(err)
	}
	refField, err := first.Field(adaptive.FieldBaryonDensity)
	if err != nil {
		log.Fatal(err)
	}
	cal, err := sys.Calibrate(ctx, refField)
	if err != nil {
		log.Fatal(err)
	}
	avgEB, err := adaptive.SpectrumBudget(refField, adaptive.BudgetOptions{})
	if err != nil {
		log.Fatal(err)
	}
	hcfg := adaptive.DefaultHaloConfig()
	fmt.Printf("calibrated on z=54: exponent %.3f, budget avg eb %.4g\n\n",
		cal.Model.Exponent, avgEB)

	// The "simulation" evolves and dumps snapshots; each dump compresses
	// in situ across the simulated MPI ranks.
	fmt.Printf("%-9s %-7s %-9s %-11s %-11s %-10s\n",
		"redshift", "ranks", "ratio", "compress_s", "overhead", "collectives")
	for _, z := range []float64{54, 51, 48, 45, 42} {
		snap, err := adaptive.GenerateSnapshot(adaptive.SynthParams{N: gridN, Seed: 3, Redshift: z})
		if err != nil {
			log.Fatal(err)
		}
		density, err := snap.Field(adaptive.FieldBaryonDensity)
		if err != nil {
			log.Fatal(err)
		}
		cf, st, err := sys.CompressInSitu(ctx, density, cal, adaptive.InSituOptions{
			Ranks: ranks,
			AvgEB: avgEB,
			Halo: &adaptive.HaloConstraint{
				TBoundary:  hcfg.BoundaryThreshold,
				RefEB:      1.0,
				MassBudget: 1e6, // generous budget; tighten for strict halo control
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9g %-7d %-9.2f %-11.4f %-11s %-10d\n",
			z, st.Ranks, cf.Ratio(), st.CompressSeconds,
			fmt.Sprintf("%.2f%%", st.FeatureOverhead()*100), st.Collectives)
	}
	fmt.Println("\noverhead = (feature extraction + optimization) / compression time per dump,")
	fmt.Println("each phase timed on its rank; with more simulated ranks than cores a single dump is noisy")
}
