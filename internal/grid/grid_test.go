package grid

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func sequentialField(nx, ny, nz int) *Field3D {
	f := NewField3D(nx, ny, nz)
	for i := range f.Data {
		f.Data[i] = float32(i)
	}
	return f
}

func TestFieldIndexRoundTrip(t *testing.T) {
	f := NewField3D(4, 5, 6)
	for z := 0; z < 6; z++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 4; x++ {
				i := f.Index(x, y, z)
				gx, gy, gz := f.Coords(i)
				if gx != x || gy != y || gz != z {
					t.Fatalf("Coords(Index(%d,%d,%d)) = (%d,%d,%d)", x, y, z, gx, gy, gz)
				}
			}
		}
	}
}

func TestFieldAtSet(t *testing.T) {
	f := NewField3D(3, 3, 3)
	f.Set(1, 2, 0, 42)
	if f.At(1, 2, 0) != 42 {
		t.Fatal("At/Set mismatch")
	}
	if f.Len() != 27 {
		t.Fatalf("Len = %d", f.Len())
	}
}

func TestFieldCloneIndependent(t *testing.T) {
	f := sequentialField(2, 2, 2)
	g := f.Clone()
	g.Data[0] = 99
	if f.Data[0] == 99 {
		t.Fatal("Clone shares storage")
	}
	if !f.SameShape(g) {
		t.Fatal("Clone shape mismatch")
	}
}

func TestFieldStats(t *testing.T) {
	f := sequentialField(2, 2, 2) // values 0..7
	if m := f.Mean(); math.Abs(m-3.5) > 1e-12 {
		t.Errorf("mean = %v, want 3.5", m)
	}
	lo, hi := f.MinMax()
	if lo != 0 || hi != 7 {
		t.Errorf("minmax = %v, %v", lo, hi)
	}
	f.Data[3] = -10
	if am := f.AbsMax(); am != 10 {
		t.Errorf("absmax = %v", am)
	}
	mom := f.Moments()
	if mom.Count() != 8 {
		t.Errorf("moments count = %d", mom.Count())
	}
}

func TestFieldValidate(t *testing.T) {
	f := NewField3D(2, 2, 2)
	if err := f.Validate(); err != nil {
		t.Fatalf("valid field rejected: %v", err)
	}
	f.Data[5] = float32(math.NaN())
	if err := f.Validate(); err == nil {
		t.Fatal("NaN accepted")
	}
	f.Data[5] = 0
	f.Data = f.Data[:7]
	if err := f.Validate(); err == nil {
		t.Fatal("truncated data accepted")
	}
}

func TestNewFieldPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero dimension")
		}
	}()
	NewField3D(0, 4, 4)
}

func TestPartitionerExactCover(t *testing.T) {
	// Non-divisible shape: last brick absorbs the remainder.
	p, err := NewPartitioner(10, 7, 5, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count() != 12 {
		t.Fatalf("count = %d, want 12", p.Count())
	}
	// Every cell covered exactly once.
	seen := make([]int, 10*7*5)
	f := NewField3D(10, 7, 5)
	for _, part := range p.Partitions() {
		for z := part.Z0; z < part.Z1; z++ {
			for y := part.Y0; y < part.Y1; y++ {
				for x := part.X0; x < part.X1; x++ {
					seen[f.Index(x, y, z)]++
				}
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("cell %d covered %d times", i, c)
		}
	}
}

func TestPartitionerErrors(t *testing.T) {
	if _, err := NewPartitioner(4, 4, 4, 0, 1, 1); err == nil {
		t.Error("zero brick count accepted")
	}
	if _, err := NewPartitioner(4, 4, 4, 5, 1, 1); err == nil {
		t.Error("more bricks than cells accepted")
	}
	if _, err := NewPartitioner(0, 4, 4, 1, 1, 1); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := PartitionerForBrickDim(512, 3); err == nil {
		t.Error("non-dividing brick dim accepted")
	}
}

func TestPartitionerForBrickDim(t *testing.T) {
	p, err := PartitionerForBrickDim(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count() != 64 {
		t.Fatalf("count = %d, want 4³", p.Count())
	}
	for _, part := range p.Partitions() {
		nx, ny, nz := part.Dims()
		if nx != 16 || ny != 16 || nz != 16 {
			t.Fatalf("brick dims = %d,%d,%d", nx, ny, nz)
		}
	}
}

func TestExtractInsertRoundTrip(t *testing.T) {
	f := sequentialField(8, 8, 8)
	p, _ := NewCubePartitioner(8, 2)
	g := NewField3D(8, 8, 8)
	for _, part := range p.Partitions() {
		brick := Extract(f, part)
		if len(brick) != part.Len() {
			t.Fatalf("brick len = %d, want %d", len(brick), part.Len())
		}
		if err := Insert(g, part, brick); err != nil {
			t.Fatal(err)
		}
	}
	for i := range f.Data {
		if f.Data[i] != g.Data[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestExtractIntoMatchesExtract(t *testing.T) {
	f := sequentialField(6, 5, 4)
	p, _ := NewPartitioner(6, 5, 4, 2, 2, 2)
	for _, part := range p.Partitions() {
		want := Extract(f, part)
		got := make([]float32, part.Len())
		ExtractInto(got, f, part)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("partition %d idx %d: %v != %v", part.ID, i, got[i], want[i])
			}
		}
	}
}

func TestInsertLengthCheck(t *testing.T) {
	f := NewField3D(4, 4, 4)
	p, _ := NewCubePartitioner(4, 2)
	if err := Insert(f, p.Partition(0), make([]float32, 3)); err == nil {
		t.Fatal("wrong-size brick accepted")
	}
}

func TestBrickField(t *testing.T) {
	p, _ := NewCubePartitioner(8, 2)
	part := p.Partition(0)
	data := make([]float32, part.Len())
	bf, err := BrickField(part, data)
	if err != nil {
		t.Fatal(err)
	}
	if bf.Nx != 4 || bf.Ny != 4 || bf.Nz != 4 {
		t.Fatalf("brick field dims %v", bf)
	}
	bf.Data[0] = 1
	if data[0] != 1 {
		t.Fatal("BrickField must share storage")
	}
	if _, err := BrickField(part, make([]float32, 5)); err == nil {
		t.Fatal("wrong-size data accepted")
	}
}

func TestScanMeans(t *testing.T) {
	// Field where each octant has a distinct constant value, every other
	// octant negative: the feature is mean |value|.
	f := NewField3D(8, 8, 8)
	p, _ := NewCubePartitioner(8, 2)
	for _, part := range p.Partitions() {
		v := float32(part.ID + 1)
		if part.ID%2 == 1 {
			v = -v
		}
		for z := part.Z0; z < part.Z1; z++ {
			for y := part.Y0; y < part.Y1; y++ {
				for x := part.X0; x < part.X1; x++ {
					f.Set(x, y, z, v)
				}
			}
		}
	}
	for i, part := range p.Partitions() {
		mean, inBand := Scan(f, part, Band{})
		if math.Abs(mean-float64(i+1)) > 1e-6 {
			t.Errorf("partition %d mean |value| = %v, want %d", i, mean, i+1)
		}
		if inBand != 0 {
			t.Errorf("partition %d: empty band counted %d cells", i, inBand)
		}
	}
}

func TestScanBoundaryCells(t *testing.T) {
	f := NewField3D(4, 4, 4)
	// 5 cells exactly at threshold, 3 just below band, 2 inside band above.
	thr := 88.16
	for i := 0; i < 5; i++ {
		f.Data[i] = float32(thr)
	}
	for i := 5; i < 8; i++ {
		f.Data[i] = float32(thr - 2.0) // outside ±1 band
	}
	for i := 8; i < 10; i++ {
		f.Data[i] = float32(thr + 0.5)
	}
	p, _ := NewCubePartitioner(4, 1)
	if _, n := Scan(f, p.Partition(0), HaloBand(thr, 1.0)); n != 7 {
		t.Errorf("boundary cells = %d, want 7", n)
	}
	// The band is half-open: a cell exactly at the upper edge is outside.
	f.Data[10] = float32(thr) + 1
	if _, n := Scan(f, p.Partition(0), Band{Lo: thr - 1, Hi: float64(float32(thr) + 1)}); n != 7 {
		t.Errorf("upper edge counted: %d cells, want 7", n)
	}
	// An inverted band is empty, like the zero value.
	if _, n := Scan(f, p.Partition(0), Band{Lo: 1, Hi: -1}); n != 0 || !(Band{Lo: 1, Hi: -1}).Empty() {
		t.Error("inverted band counted cells")
	}
}

// TestScanMatchesBrickCopy pins the in-place scan to the value a scan of the
// extracted brick gives, bit for bit: the summation order is the brick's.
func TestScanMatchesBrickCopy(t *testing.T) {
	r := stats.NewRNG(99)
	f := NewField3D(16, 12, 20)
	for i := range f.Data {
		f.Data[i] = float32(r.NormFloat64() * 100)
	}
	p, _ := NewPartitioner(16, 12, 20, 4, 3, 5)
	band := Band{Lo: -10, Hi: 25}
	for _, part := range p.Partitions() {
		var sum float64
		data := Extract(f, part)
		for _, v := range data {
			sum += math.Abs(float64(v))
		}
		mean, inBand := Scan(f, part, band)
		if mean != sum/float64(len(data)) {
			t.Fatalf("%v: in-place mean %v != brick mean %v", part, mean, sum/float64(len(data)))
		}
		if want := stats.CountInBand(data, band.Lo, band.Hi); inBand != want {
			t.Fatalf("%v: in-place band count %d != %d", part, inBand, want)
		}
	}
}

// Property: Extract → Insert into a zero field reproduces exactly the brick
// region and nothing else, for arbitrary brick-count choices.
func TestQuickExtractInsert(t *testing.T) {
	f := sequentialField(12, 12, 12)
	check := func(bx, by, bz uint8) bool {
		b := func(v uint8) int { return 1 + int(v)%4 }
		p, err := NewPartitioner(12, 12, 12, b(bx), b(by), b(bz))
		if err != nil {
			return false
		}
		g := NewField3D(12, 12, 12)
		for _, part := range p.Partitions() {
			if err := Insert(g, part, Extract(f, part)); err != nil {
				return false
			}
		}
		for i := range f.Data {
			if f.Data[i] != g.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
