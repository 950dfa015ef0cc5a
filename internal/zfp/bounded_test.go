package zfp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/grid"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// The contract of CompressBounded, checked against oracles that share none
// of its code: every grid rate is evaluated the slow way (DecompressAtRate
// plus a whole-field max-abs error), and the ladder-and-bisection search the
// block-resident one replaced is kept below as the differential reference.

// oracleGrid derives the candidate rates from where they came from: every
// rate the reference search below can settle on — a rung of its ladder, or
// a midpoint its three bisection steps can reach between two rungs.
var oracleGrid = buildOracleGrid()

func buildOracleGrid() []float64 {
	ladder := []float64{0.5, 1, 2, 4, 8, 16, 32}
	set := map[float64]bool{}
	var bisect func(lo, hi float64, steps int)
	bisect = func(lo, hi float64, steps int) {
		set[hi] = true
		if steps > 0 && hi-lo > 0.25 && lo >= 0.5 {
			bisect(lo, (lo+hi)/2, steps-1)
			bisect((lo+hi)/2, hi, steps-1)
		}
	}
	bisect(0, ladder[0], 3)
	for k := 1; k < len(ladder); k++ {
		bisect(ladder[k-1], ladder[k], 3)
	}
	var grid []float64
	for r := range set {
		grid = append(grid, r)
	}
	sort.Float64s(grid)
	return grid
}

func TestRateGrid(t *testing.T) {
	if len(rateGrid) != 39 || !slices.Equal(rateGrid, oracleGrid) {
		t.Fatalf("rate grid %v\nis not what the reference search can reach: %v", rateGrid, oracleGrid)
	}
}

// wholeFieldMaxErr is the max-abs error a probe of the old search measured
// (a NaN difference never raises it).
func wholeFieldMaxErr(a, b []float32) float64 {
	m, err := stats.MaxAbsError(a, b)
	if err != nil {
		panic(err)
	}
	return m
}

// oraclePass evaluates every grid rate by full reconstruction.
func oraclePass(t testing.TB, ix *Indexed, f *grid.Field3D, eb float64) []bool {
	t.Helper()
	pass := make([]bool, len(oracleGrid))
	for g, rate := range oracleGrid {
		rec, err := ix.DecompressAtRate(rate)
		if err != nil {
			t.Fatal(err)
		}
		pass[g] = wholeFieldMaxErr(f.Data, rec.Data) <= eb
	}
	return pass
}

func monotone(pass []bool) bool {
	for g := 1; g < len(pass); g++ {
		if pass[g-1] && !pass[g] {
			return false
		}
	}
	return true
}

// refCompressBounded is the search CompressBounded replaced, kept verbatim
// as a reference: a geometric ladder seeded at hint (0: from the bottom),
// three bisection steps, every probe a whole-field truncated decode. Its
// result depends on the probe path wherever pass/fail is not monotone in
// rate, which is why it is a reference for the monotone cases only.
func refCompressBounded(t testing.TB, f *grid.Field3D, eb, hint float64) (c *Compressed, met bool) {
	t.Helper()
	ladder := []float64{0.5, 1, 2, 4, 8, 16, 32}
	ix, err := CompressIndexed(f, Options{Rate: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := grid.NewField3D(f.Nx, f.Ny, f.Nz)
	try := func(rate float64) float64 {
		if err := ix.DecompressAtRateInto(probe, rate, nil); err != nil {
			t.Fatal(err)
		}
		return wholeFieldMaxErr(f.Data, probe.Data)
	}
	k := 0
	for hint > 0 && k < len(ladder)-1 && ladder[k] < hint {
		k++
	}
	lo, hi := 0.0, 0.0
	if try(ladder[k]) <= eb {
		for k > 0 && try(ladder[k-1]) <= eb {
			k--
		}
		hi = ladder[k]
		if k > 0 {
			lo = ladder[k-1]
		}
	} else {
		lo = ladder[k]
		for k < len(ladder)-1 {
			k++
			if try(ladder[k]) <= eb {
				hi = ladder[k]
				break
			}
			lo = ladder[k]
		}
	}
	if hi == 0 {
		return ix.C, false
	}
	for i := 0; i < 3 && hi-lo > 0.25 && lo >= 0.5; i++ {
		if mid := (lo + hi) / 2; try(mid) <= eb {
			hi = mid
		} else {
			lo = mid
		}
	}
	c, err = ix.TruncateToRate(hi, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, true
}

// checkBounded holds one (field, bound) pair to the whole contract.
func checkBounded(t *testing.T, name string, f *grid.Field3D, eb float64) {
	t.Helper()
	got, st, err := CompressBounded(context.Background(), f, eb, nil)
	if err != nil {
		t.Fatalf("%s eb %g: %v", name, eb, err)
	}
	ix, err := CompressIndexed(f, Options{Rate: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pass := oraclePass(t, ix, f, eb)

	// (b) The per-block predicate is the brute-force oracle, rate by rate.
	var s Scratch
	for g, rate := range oracleGrid {
		decodes := 0
		fail, err := ix.firstFailing(f, budgetOf(rate), eb, 0, true, &s, &decodes)
		if err != nil {
			t.Fatal(err)
		}
		if (fail < 0) != pass[g] {
			t.Errorf("%s eb %g rate %g: predicate says pass=%v, full reconstruction says %v", name, eb, rate, fail < 0, pass[g])
		}
		if blocks := len(ix.starts) - 1; fail < 0 && decodes != blocks {
			t.Errorf("%s eb %g rate %g: a passing round decoded %d of %d blocks", name, eb, rate, decodes, blocks)
		}
	}

	// (a) The chosen rate passes, the one below fails, and the choice is
	// the global minimum whenever there is only one to find.
	g := indexOf(oracleGrid, got.Rate)
	switch {
	case !st.Met:
		if g != len(oracleGrid)-1 || pass[g] {
			t.Errorf("%s eb %g: reported the bound unmet at rate %g (max rate passes: %v)", name, eb, got.Rate, pass[len(pass)-1])
		}
	default:
		if !pass[g] {
			t.Errorf("%s eb %g: chosen rate %g misses the bound", name, eb, got.Rate)
		}
		if g > 0 && pass[g-1] {
			t.Errorf("%s eb %g: rate %g below the chosen %g also passes", name, eb, oracleGrid[g-1], got.Rate)
		}
	}
	direct, err := Compress(f, Options{Rate: got.Rate})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), direct.Bytes()) {
		t.Errorf("%s eb %g: stream differs from Compress at the chosen rate %g", name, eb, got.Rate)
	}
	if monotone(pass) {
		for _, hint := range []float64{0, 0.9, 7.3, 32} {
			ref, met := refCompressBounded(t, f, eb, hint)
			if met != st.Met || !bytes.Equal(got.Bytes(), ref.Bytes()) {
				t.Errorf("%s eb %g: rate %g (met %v) differs from the reference ladder's %g (met %v, hint %g)",
					name, eb, got.Rate, st.Met, ref.Rate, met, hint)
			}
		}
	}
}

type namedField struct {
	name string
	f    *grid.Field3D
}

// boundedFields are the shapes the search must hold on: smooth and noisy
// cubes, non-multiple-of-4 dims, all-zero blocks, a NaN cell.
func boundedFields() []namedField {
	r := stats.NewRNG(91)
	noisy := grid.NewCube(12)
	for i := range noisy.Data {
		noisy.Data[i] = float32(r.NormFloat64() * 40)
	}
	ragged := grid.NewField3D(7, 5, 6)
	for i := range ragged.Data {
		ragged.Data[i] = float32(i%13)*0.75 + float32(r.NormFloat64())
	}
	holed := smoothField(12, 92)
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			for x := 4; x < 8; x++ {
				holed.Set(x, y, z, 0) // one all-zero block
			}
		}
	}
	nan := smoothField(8, 93)
	nan.Set(5, 2, 6, float32(math.NaN()))
	return []namedField{
		{"smooth", smoothField(16, 90)}, {"noisy", noisy}, {"ragged", ragged},
		{"holed", holed}, {"zero", grid.NewCube(8)}, {"nan", nan},
	}
}

func TestCompressBoundedContract(t *testing.T) {
	for _, nf := range boundedFields() {
		name, f := nf.name, nf.f
		scale := f.AbsMax()
		if !(scale > 0) {
			scale = 1
		}
		// Bounds from "nothing meets it" to "anything does", dense enough
		// that thresholds land on every segment of the grid.
		for _, rel := range []float64{1e-30, 1e-9, 1e-7, 3e-6, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 2} {
			checkBounded(t, name, f, rel*scale)
		}
	}
	f := boundedFields()[0].f
	if _, st, err := CompressBounded(context.Background(), f, 1e-30*f.AbsMax(), nil); err != nil || st.Met {
		t.Errorf("a bound no rate meets: met %v, err %v", st.Met, err)
	}
	if _, _, err := CompressBounded(context.Background(), nil, 1, nil); err == nil {
		t.Error("nil field accepted")
	}
}

// TestCompressBoundedWorkerAndScratchIndependent is (c): the search is a
// pure function of (field, bound), so neither the helper budget nor a warm
// Scratch can move a byte — on a field large enough to fan rounds out.
func TestCompressBoundedWorkerAndScratchIndependent(t *testing.T) {
	f := smoothField(32, 94) // 512 blocks, above minParallelBlocks
	var warm Scratch
	for _, eb := range []float64{1e-4, 0.03, 2, 40} {
		serial := parallel.SetLimit(0)
		want, wantSt, err := CompressBounded(context.Background(), f, eb, nil)
		serial()
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{1, 3} {
			restore := parallel.SetLimit(limit)
			for _, s := range []*Scratch{nil, &warm, {}} {
				got, st, err := CompressBounded(context.Background(), f, eb, s)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) || st.Met != wantSt.Met || st.Rounds != wantSt.Rounds {
					t.Errorf("eb %g limit %d: rate %g met %v rounds %d, serial chose %g met %v rounds %d",
						eb, limit, got.Rate, st.Met, st.Rounds, want.Rate, wantSt.Met, wantSt.Rounds)
				}
			}
			restore()
		}
		checkBounded(t, "smooth32", f, eb)
	}
}

// TestCompressBoundedOwnsItsBytes: the max-rate stream lives in the Scratch,
// so whatever is returned — a spliced prefix or, with the bound unmet, the
// max-rate stream itself — must survive the Scratch's next compression.
func TestCompressBoundedOwnsItsBytes(t *testing.T) {
	a, b := smoothField(16, 95), smoothField(16, 96)
	var s Scratch
	for _, eb := range []float64{0.05, 1e-30} {
		first, st, err := CompressBounded(context.Background(), a, eb, &s)
		if err != nil {
			t.Fatal(err)
		}
		if st.Met != (eb > 1e-20) {
			t.Fatalf("eb %g: met %v", eb, st.Met)
		}
		before := append([]byte(nil), first.Bytes()...)
		if _, _, err := CompressBounded(context.Background(), b, eb, &s); err != nil {
			t.Fatal(err)
		}
		if _, err := CompressWith(b, Options{Rate: 32}, &s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), before) {
			t.Errorf("eb %g: reusing the Scratch rewrote the first frame's bytes", eb)
		}
		fresh, _, err := CompressBounded(context.Background(), a, eb, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fresh.Bytes(), before) {
			t.Errorf("eb %g: a warm Scratch changed the frame", eb)
		}
	}
}

func TestCompressBoundedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := CompressBounded(ctx, smoothField(8, 97), 0.1, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled search returned %v, want context.Canceled", err)
	}
}

// FuzzCompressBounded drives the search with arbitrary cells (NaN and
// infinities included), shapes and bounds: it must not panic, a bound it
// reports met must hold on the decompressed field with the rate below
// failing, and the stream must be the fixed-rate one at the chosen rate.
func FuzzCompressBounded(f *testing.F) {
	cells := func(f *grid.Field3D) []byte {
		out := make([]byte, 0, 4*len(f.Data))
		for _, v := range f.Data {
			b := math.Float32bits(v)
			out = append(out, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
		}
		return out
	}
	for _, nf := range boundedFields() {
		if fld := nf.f; fld.Len() <= 1<<10 {
			scale := math.Max(fld.AbsMax(), 1)
			for _, rel := range []float64{1e-30, 1e-4, 0.05} {
				f.Add(uint8(fld.Nx-1), uint8(fld.Ny-1), rel*scale, cells(fld))
			}
		}
	}
	f.Add(uint8(0), uint8(0), 0.5, []byte{1, 2, 3})
	f.Add(uint8(3), uint8(2), math.Inf(1), bytes.Repeat([]byte{0, 0, 0x80, 0x7f}, 30)) // +Inf cells
	f.Fuzz(func(t *testing.T, nx, ny uint8, eb float64, raw []byte) {
		w, h := int(nx%12)+1, int(ny%12)+1
		n := len(raw) / 4
		d := n / (w * h)
		if d == 0 || d > 12 || !(eb > 0) {
			return
		}
		fld := grid.NewField3D(w, h, d)
		for i := range fld.Data {
			fld.Data[i] = math.Float32frombits(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
		}
		c, st, err := CompressBounded(context.Background(), fld, eb, nil)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Compress(fld, Options{Rate: c.Rate})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.Bytes(), direct.Bytes()) {
			t.Fatalf("stream differs from Compress at rate %g", c.Rate)
		}
		rec, err := Decompress(c)
		if err != nil {
			t.Fatal(err)
		}
		if worst := wholeFieldMaxErr(fld.Data, rec.Data); st.Met != (worst <= eb) {
			t.Fatalf("met %v at rate %g, measured max error %g against bound %g", st.Met, c.Rate, worst, eb)
		}
		if !st.Met && c.Rate != 32 {
			t.Fatalf("bound unmet but rate %g returned", c.Rate)
		}
		if g := indexOf(oracleGrid, c.Rate); st.Met && g > 0 {
			below, err := Compress(fld, Options{Rate: oracleGrid[g-1]})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := Decompress(below)
			if err != nil {
				t.Fatal(err)
			}
			if worst := wholeFieldMaxErr(fld.Data, rec.Data); worst <= eb {
				t.Fatalf("rate %g below the chosen %g already meets the bound (%g ≤ %g)", below.Rate, c.Rate, worst, eb)
			}
		}
	})
}

func indexOf(s []float64, v float64) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	panic(fmt.Sprintf("rate %v not on the grid", v))
}
