// Halo-finder example: compress the baryon-density field under the
// combined power-spectrum + halo-mass budget (the paper's Sec. 3.6
// strategy for density fields), then verify the reconstructed halo catalog
// against the original — count, positions, and the mass-ratio RMSE the
// paper targets at 1 ± 0.01.
//
// Run with: go run ./examples/halofinder
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

	snap, err := adaptive.GenerateSnapshot(adaptive.SynthParams{N: 64, Seed: 5, Redshift: 42})
	if err != nil {
		log.Fatal(err)
	}
	density, err := snap.Field(adaptive.FieldBaryonDensity)
	if err != nil {
		log.Fatal(err)
	}

	hcfg := adaptive.DefaultHaloConfig()
	original, err := adaptive.FindHalos(density, hcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original catalog: %d halos, %d candidate cells, total mass %.4g\n",
		original.Count(), original.Candidates, original.TotalMass())
	for _, h := range original.LargestN(3) {
		fmt.Printf("  halo %d: %d cells, mass %.4g, peak %.4g at (%.1f, %.1f, %.1f)\n",
			h.ID, h.Cells, h.Mass, h.Peak, h.X, h.Y, h.Z)
	}

	sys, err := adaptive.New(adaptive.WithPartitionDim(16))
	if err != nil {
		log.Fatal(err)
	}
	cal, err := sys.Calibrate(ctx, density)
	if err != nil {
		log.Fatal(err)
	}
	p, err := adaptive.PartitionerForBrickDim(64, 16)
	if err != nil {
		log.Fatal(err)
	}

	// Combined budget: spectrum band plus halo-mass budget (1 % of total
	// halo mass, per the paper's RMSE target).
	avgEB, err := adaptive.SpectrumBudget(density, adaptive.BudgetOptions{})
	if err != nil {
		log.Fatal(err)
	}
	hb, err := adaptive.HaloBudget(density, hcfg, 0.01, 1.0, p)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := sys.Plan(ctx, density, cal, adaptive.PlanOptions{AvgEB: avgEB, Halo: &hb.HaloConstraint})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplan: avg eb %.4g, halo mass budget %.4g, halo-scaled: %v (×%.3g)\n",
		avgEB, hb.MassBudget, plan.Predicted.HaloScaled, plan.Predicted.HaloScale)

	cf, err := sys.CompressAdaptive(ctx, density, plan)
	if err != nil {
		log.Fatal(err)
	}
	recon, err := cf.Decompress(ctx)
	if err != nil {
		log.Fatal(err)
	}
	reconCat, err := adaptive.FindHalos(recon, hcfg)
	if err != nil {
		log.Fatal(err)
	}
	match := adaptive.MatchHalos(original, reconCat, 2.0, 64, 64, 64)

	fmt.Printf("\ncompressed %.1f× — reconstructed catalog: %d halos\n",
		cf.Ratio(), reconCat.Count())
	fmt.Printf("  matched %d / lost %d / spurious %d\n",
		match.Matched, match.Lost, match.Spurious)
	fmt.Printf("  halo mass-ratio RMSE: %.5f (paper target ≤ 0.01)\n", match.MassRatioRMSE)
	fmt.Printf("  position RMSE: %.4f cells\n", match.PositionRMSE)
	fmt.Printf("  total |Δmass|: %.4g (model estimate was ≤ budget %.4g)\n",
		match.TotalAbsMassDiff, hb.MassBudget)
}
