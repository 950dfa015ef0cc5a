package huffman

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := NewBitWriter(16)
	vals := []struct {
		v uint64
		n uint
	}{
		{1, 1}, {0, 1}, {0b101, 3}, {0xDEAD, 16}, {0x1FFFFFFFFFFFFF, 53}, {7, 5},
	}
	for _, e := range vals {
		w.WriteBits(e.v, e.n)
	}
	r := NewBitReader(w.Bytes())
	for i, e := range vals {
		got, err := r.ReadBits(e.n)
		if err != nil {
			t.Fatal(err)
		}
		if got != e.v&((1<<e.n)-1) {
			t.Fatalf("entry %d: got %x want %x", i, got, e.v)
		}
	}
}

func TestBitWriterBitLen(t *testing.T) {
	w := NewBitWriter(4)
	w.WriteBits(0, 3)
	if w.BitLen() != 3 {
		t.Fatalf("BitLen = %d", w.BitLen())
	}
	w.WriteBits(0, 13)
	if w.BitLen() != 16 {
		t.Fatalf("BitLen = %d", w.BitLen())
	}
	if len(w.Bytes()) != 2 {
		t.Fatalf("Bytes len = %d", len(w.Bytes()))
	}
}

func TestBitReaderOutOfBits(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); err != ErrOutOfBits {
		t.Fatalf("err = %v, want ErrOutOfBits", err)
	}
}

func TestBitWriterPanicsOnWideWrite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteBits(>57) did not panic")
		}
	}()
	NewBitWriter(1).WriteBits(0, 58)
}

func roundTrip(t *testing.T, symbols []int) {
	t.Helper()
	enc, err := Compress(symbols)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	dec, err := Decompress(enc)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if len(dec) != len(symbols) {
		t.Fatalf("length %d != %d", len(dec), len(symbols))
	}
	for i := range symbols {
		if dec[i] != symbols[i] {
			t.Fatalf("symbol %d: %d != %d", i, dec[i], symbols[i])
		}
	}
}

func TestRoundTripSimple(t *testing.T) {
	roundTrip(t, []int{1, 2, 3, 1, 1, 1, 2, 5, 1, 1})
}

func TestRoundTripSingleSymbol(t *testing.T) {
	roundTrip(t, []int{42})
	sym := make([]int, 1000)
	for i := range sym {
		sym[i] = 7
	}
	roundTrip(t, sym)
}

func TestRoundTripTwoSymbols(t *testing.T) {
	roundTrip(t, []int{0, 1, 0, 0, 1, 0})
}

func TestRoundTripLargeAlphabet(t *testing.T) {
	r := stats.NewRNG(5)
	sym := make([]int, 20000)
	for i := range sym {
		sym[i] = r.Intn(5000)
	}
	roundTrip(t, sym)
}

func TestRoundTripSkewed(t *testing.T) {
	// SZ-like distribution: most symbols at the center code.
	r := stats.NewRNG(6)
	sym := make([]int, 50000)
	for i := range sym {
		g := r.NormFloat64() * 3
		sym[i] = 32768 + int(g)
	}
	roundTrip(t, sym)
}

func TestCompressEmpty(t *testing.T) {
	if _, err := Compress(nil); err != ErrEmptyInput {
		t.Fatalf("err = %v", err)
	}
}

func TestCompressNegativeSymbol(t *testing.T) {
	if _, err := Compress([]int{1, -2}); err == nil {
		t.Fatal("negative symbol accepted")
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	// Heavily skewed stream must compress far below 32-bit raw encoding
	// and close to its empirical entropy.
	r := stats.NewRNG(7)
	sym := make([]int, 100000)
	for i := range sym {
		if r.Float64() < 0.9 {
			sym[i] = 100
		} else {
			sym[i] = r.Intn(16)
		}
	}
	enc, err := Compress(sym)
	if err != nil {
		t.Fatal(err)
	}
	bitsPerSym := float64(len(enc)) * 8 / float64(len(sym))
	entropy := stats.SymbolEntropy(sym)
	// Huffman's guarantee is entropy+1 (it cannot emit codes shorter than
	// one bit; the sub-bit regime is handled by the RLE stage in the sz
	// package). Allow a little table overhead on top.
	if bitsPerSym > entropy+1.05 {
		t.Errorf("bits/sym = %.3f, entropy = %.3f: beyond Huffman bound", bitsPerSym, entropy)
	}
	if bitsPerSym > 8 {
		t.Errorf("bits/sym = %.3f, not compressing at all", bitsPerSym)
	}
}

func TestDecompressRejectsCorruptStreams(t *testing.T) {
	sym := []int{1, 2, 3, 4, 5, 1, 2, 1}
	enc, err := Compress(sym)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every byte boundary must error, never panic.
	for i := 0; i < len(enc)-1; i++ {
		if _, err := Decompress(enc[:i]); err == nil {
			// Some truncations may still decode if they cut only padding;
			// the final byte carries payload here so all shorter prefixes
			// must fail. Allow success only if output length matches.
			dec, _ := Decompress(enc[:i])
			if len(dec) != len(sym) {
				t.Fatalf("truncation at %d decoded %d symbols without error", i, len(dec))
			}
		}
	}
	if _, err := Decompress(nil); err == nil {
		t.Fatal("nil stream accepted")
	}
	if _, err := Decompress([]byte{0}); err == nil {
		t.Fatal("trivial stream accepted")
	}
}

// TestDecompressUnsortedTables: the format does not require the stored
// table in symbol order, so a reordered table must decode exactly like the
// sorted one, a duplicated symbol must be rejected, and neither may cost
// the reused-scratch decoder an allocation.
func TestDecompressUnsortedTables(t *testing.T) {
	seeds := fuzzSeedTables(t)
	sorted, dup := seeds[0], seeds[len(seeds)-1]
	want, err := Decompress(sorted)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	for i, enc := range seeds[1 : len(seeds)-1] {
		got, err := DecompressWith(enc, &s)
		if err != nil {
			t.Fatalf("reordered table %d: %v", i, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("reordered table %d decodes differently", i)
		}
		if a := testing.AllocsPerRun(10, func() { _, _ = DecompressWith(enc, &s) }); a != 0 {
			t.Errorf("reordered table %d: %.0f allocs per reused-scratch decode", i, a)
		}
	}
	if _, err := DecompressWith(dup, &s); !errors.Is(err, ErrCorruptTable) {
		t.Fatalf("duplicated symbol in an unsorted table: got %v, want ErrCorruptTable", err)
	}
}

func TestDecompressBitFlips(t *testing.T) {
	sym := make([]int, 500)
	r := stats.NewRNG(8)
	for i := range sym {
		sym[i] = r.Intn(30)
	}
	enc, _ := Compress(sym)
	flips := 0
	for i := 0; i < len(enc); i += 7 {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x40
		dec, err := Decompress(bad)
		if err == nil && len(dec) == len(sym) {
			// A flip can land in padding or produce a different valid
			// decode; what matters is no panic and consistent length.
			continue
		}
		flips++
	}
	_ = flips // any mixture of detected/undetected is fine; no panics is the invariant
}

func TestBoundedCodeLengths(t *testing.T) {
	// Fibonacci-like frequencies force deep trees; the bounded builder must
	// cap the depth at maxCodeLen.
	var pairs []symFreq
	a, b := int64(1), int64(1)
	for i := 0; i < 80; i++ {
		pairs = append(pairs, symFreq{sym: i, freq: a})
		a, b = b, a+b
		if a < 0 { // overflow guard: clamp
			a = 1 << 62
		}
	}
	var s Scratch
	lens := make([]uint8, len(pairs))
	s.boundedCodeLengthsInto(lens, pairs)
	entries := make([]symLen, len(pairs))
	for i, p := range pairs {
		if lens[i] > maxCodeLen {
			t.Fatalf("symbol %d has length %d > %d", p.sym, lens[i], maxCodeLen)
		}
		entries[i] = symLen{sym: p.sym, n: lens[i]}
	}
	// And the table must still be decodable (Kraft inequality holds).
	var dt decodeTable
	if err := dt.build(entries); err != nil {
		t.Fatalf("bounded lengths not decodable: %v", err)
	}
}

func TestEncodedSizeBound(t *testing.T) {
	r := stats.NewRNG(9)
	sym := make([]int, 5000)
	for i := range sym {
		sym[i] = r.Intn(100)
	}
	enc, _ := Compress(sym)
	if len(enc) > EncodedSizeBound(len(sym), 100) {
		t.Fatalf("encoded %d bytes exceeds bound %d", len(enc), EncodedSizeBound(len(sym), 100))
	}
}

// Property: round trip is exact for arbitrary non-negative symbol streams.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		sym := make([]int, len(raw))
		for i, v := range raw {
			sym[i] = int(v)
		}
		enc, err := Compress(sym)
		if err != nil {
			return false
		}
		dec, err := Decompress(enc)
		if err != nil || len(dec) != len(sym) {
			return false
		}
		for i := range sym {
			if dec[i] != sym[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: compressed size in bits per symbol is never more than
// entropy + 1 + small table overhead (Huffman optimality bound).
func TestQuickNearEntropy(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 256 {
			return true
		}
		sym := make([]int, len(raw))
		for i, v := range raw {
			sym[i] = int(v)
		}
		enc, err := Compress(sym)
		if err != nil {
			return false
		}
		bits := float64(len(enc)) * 8
		entropy := stats.SymbolEntropy(sym) * float64(len(sym))
		tableOverhead := float64(10 * 8 * 260) // generous
		return bits <= entropy+float64(len(sym))+tableOverhead
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNearEntropyGaussian(t *testing.T) {
	// The typical SZ symbol distribution: discrete Gaussian around the
	// center code. Huffman should land within ~0.1 bit of entropy.
	r := stats.NewRNG(10)
	sym := make([]int, 200000)
	for i := range sym {
		sym[i] = 128 + int(math.Round(r.NormFloat64()*2))
	}
	enc, _ := Compress(sym)
	bps := float64(len(enc)) * 8 / float64(len(sym))
	h := stats.SymbolEntropy(sym)
	if bps > h+0.12 {
		t.Errorf("bits/sym %.4f vs entropy %.4f", bps, h)
	}
}
