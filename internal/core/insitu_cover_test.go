package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/apierr"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/optimizer"
)

func TestFeatureOverhead(t *testing.T) {
	st := &InSituStats{FeatureSeconds: 1, OptimizeSeconds: 1, CompressSeconds: 4}
	if got := st.FeatureOverhead(); got != 0.5 {
		t.Errorf("FeatureOverhead = %v, want 0.5", got)
	}
	if got := (&InSituStats{}).FeatureOverhead(); got != 0 {
		t.Errorf("zero-compress FeatureOverhead = %v, want 0", got)
	}
}

// scriptedGather is rank 0 of a two-rank world whose peer's contribution to
// the feature gather is scripted: the transport hands back this rank's
// tuples followed by peer.
type scriptedGather struct {
	mpi.Transport
	peer []float64
}

func (scriptedGather) Rank() int    { return 0 }
func (scriptedGather) Size() int    { return 2 }
func (scriptedGather) Alive() []int { return []int{0, 1} }
func (s scriptedGather) AllgatherSlice(v []float64) ([]float64, error) {
	return append(append([]float64(nil), v...), s.peer...), nil
}

// TestGatherRejectsInconsistentOwnership: the gather trusts nothing a peer
// sends. Rank 0 of two owns partitions 0, 2, 4, 6 of eight; whatever the
// peer contributes instead of exactly 1, 3, 5, 7 — too few, too many, a
// duplicate, an ID outside the field, a fractional or non-finite ID, a
// different stride — is a typed configuration error, never a panic and
// never a plan computed on a vector with holes.
func TestGatherRejectsInconsistentOwnership(t *testing.T) {
	e := engine(t, Config{PartitionDim: 8})
	f := grid.NewCube(16)
	for i := range f.Data {
		f.Data[i] = float32(i%7) + 1
	}
	gather := func(hc *optimizer.HaloConstraint, peer ...float64) ([]float64, *optimizer.HaloConstraint, error) {
		t.Helper()
		c := mpi.NewComm(scriptedGather{peer: peer})
		owned, err := e.OwnedPartitions(c, f)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := e.ScanOwned(context.Background(), f, owned, hc)
		if err != nil {
			t.Fatal(err)
		}
		return scan.Gather(c)
	}

	features, _, err := gather(nil, 1, 10, 3, 30, 5, 50, 7, 70)
	if err != nil {
		t.Fatal(err)
	}
	if len(features) != 8 || features[3] != 30 || features[7] != 70 || features[0] <= 0 {
		t.Fatalf("gathered features %v: peer values not placed by partition ID", features)
	}
	hc := &optimizer.HaloConstraint{TBoundary: 3, RefEB: 1, MassBudget: 1}
	_, filled, err := gather(hc, 1, 10, 11, 3, 30, 33, 5, 50, 55, 7, 70, 77)
	if err != nil {
		t.Fatal(err)
	}
	if got := filled.BoundaryCells; len(got) != 8 || got[1] != 11 || got[7] != 77 || hc.BoundaryCells != nil {
		t.Fatalf("gathered boundary cells %v (caller's constraint now %v)", got, hc.BoundaryCells)
	}

	for name, peer := range map[string][]float64{
		"missing partition":     {1, 10, 3, 30, 5, 50},
		"nothing":               nil,
		"extra partition":       {1, 10, 3, 30, 5, 50, 7, 70, 7, 70},
		"duplicate of a peer's": {1, 10, 3, 30, 5, 50, 5, 50},
		"duplicate of ours":     {1, 10, 3, 30, 5, 50, 0, 1},
		"id past the field":     {1, 10, 3, 30, 5, 50, 8, 80},
		"negative id":           {1, 10, 3, 30, 5, 50, -1, 70},
		"fractional id":         {1, 10, 3, 30, 5, 50, 6.5, 70},
		"NaN id":                {1, 10, 3, 30, 5, 50, math.NaN(), 70},
		"infinite id":           {1, 10, 3, 30, 5, 50, math.Inf(1), 70},
		"halo stride":           {1, 10, 11, 3, 30, 33, 5, 50, 55, 7, 70, 77},
		"odd length":            {1, 10, 3, 30, 5, 50, 7},
	} {
		if _, _, err := gather(nil, peer...); !errors.Is(err, apierr.ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}

	// A peer that died is the transport's typed error, passed through.
	dead := &apierr.RankFailedError{Rank: 1, Epoch: 1}
	c := mpi.NewComm(failingGather{scriptedGather{}, dead})
	scan, err := e.ScanOwned(context.Background(), f, []int{0, 2, 4, 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rf *apierr.RankFailedError
	if _, _, err := scan.Gather(c); !errors.As(err, &rf) || rf != dead {
		t.Errorf("dead peer: err = %v, want the transport's RankFailedError", err)
	}

	// More ranks than partitions leaves a rank with nothing to own.
	if _, err := e.OwnedPartitions(mpi.NewComm(scriptedGather{}), grid.NewCube(8)); !errors.Is(err, apierr.ErrBadConfig) {
		t.Errorf("1 partition for 2 ranks: err = %v, want ErrBadConfig", err)
	}
}

type failingGather struct {
	scriptedGather
	err error
}

func (f failingGather) AllgatherSlice([]float64) ([]float64, error) { return nil, f.err }
