package codec

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz harness for the frame envelope decoder: whatever the bytes,
// DecodeFrame must return an error or a usable frame — never panic. The
// seed corpus (valid sz and zfp frames plus targeted corruptions) is
// checked in under testdata/fuzz/FuzzDecodeFrame; regenerate it with
//
//	go test ./internal/codec -run TestWriteFuzzCorpus -update-fuzz-corpus
//
// and extend coverage any time with
//
//	go test ./internal/codec -fuzz=FuzzDecodeFrame -fuzztime=30s

var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false, "rewrite the checked-in fuzz seed corpus")

// fuzzSeedFrames builds one valid frame per registered codec from a small
// deterministic brick.
func fuzzSeedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	data := make([]float32, 4*4*4)
	for i := range data {
		data[i] = float32(i%7) * 0.5
	}
	var out [][]byte
	for _, id := range IDs() {
		c, err := Lookup(id)
		if err != nil {
			tb.Fatal(err)
		}
		fr, err := c.Compress(data, 4, 4, 4, Options{ErrorBound: 0.1}, nil)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, EncodeFrame(fr))
	}
	return out
}

// fuzzSeedMutations derives targeted corruptions from the valid frames.
func fuzzSeedMutations(valid [][]byte) [][]byte {
	out := [][]byte{
		nil,
		[]byte("CFRM"),
		[]byte("XXXXxxxxxxxx"),
		{0x43, 0x46, 0x52, 0x4D, 0xFF, 0x20}, // bad version
		{0x43, 0x46, 0x52, 0x4D, 0x01, 0x00}, // zero ID length
		{0x43, 0x46, 0x52, 0x4D, 0x01, 0xFF}, // oversized ID length
	}
	for _, v := range valid {
		if len(v) == 0 {
			continue
		}
		trunc := v[:len(v)/2]
		out = append(out, trunc)
		flip := append([]byte(nil), v...)
		flip[len(flip)-1] ^= 0xFF
		out = append(out, flip)
		unknown := append([]byte(nil), v...)
		unknown[6] = 'q' // codec ID now names no backend
		out = append(out, unknown)
	}
	return out
}

// fuzzSeedBounded adds zfp frames from the error-bounded path on a brick
// with ragged dims: a tight bound, a loose one, one no rate meets, and a
// torn frame. They come after the older seeds so those keep their corpus
// file names.
func fuzzSeedBounded(tb testing.TB) [][]byte {
	tb.Helper()
	data := make([]float32, 7*5*3)
	for i := range data {
		data[i] = float32(i%11)*0.25 - 1
	}
	c, err := Lookup(ZFP)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, eb := range []float64{1e-4, 0.4, 1e-30} {
		fr, err := c.Compress(data, 7, 5, 3, Options{ErrorBound: eb}, nil)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, EncodeFrame(fr))
	}
	return append(out, out[0][:len(out[0])-5])
}

// fuzzSeedLattice adds sz frames from the integer-lattice encoder: one
// with NaN outliers and one with ±Inf outliers (their lattice coordinate is
// the explicit math.MinInt64 every neighbour's prediction reads), and a
// legacy frame, lattice-coded with the predictor byte saying MeanNeighbor,
// as MeanNeighbor requests with quantize-before-predict set were once
// written. They come after the older seeds.
func fuzzSeedLattice(tb testing.TB) [][]byte {
	tb.Helper()
	c, err := Lookup(SZ)
	if err != nil {
		tb.Fatal(err)
	}
	compress := func(specials ...float32) []byte {
		data := make([]float32, 5*4*3)
		for i := range data {
			data[i] = float32(i%5)*0.3 - 0.5
		}
		for i, v := range specials {
			data[7+13*i] = v
		}
		fr, err := c.Compress(data, 5, 4, 3, Options{ErrorBound: 0.1}, nil)
		if err != nil {
			tb.Fatal(err)
		}
		return EncodeFrame(fr)
	}
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	legacy := compress()
	legacy[frameFixedBytes+len(SZ)+6] = byte(MeanNeighbor) // sz header: predictor byte
	return [][]byte{compress(nan, nan), compress(inf, -inf, inf), legacy}
}

// fuzzSeeds is the whole seed list, in corpus file order.
func fuzzSeeds(tb testing.TB) [][]byte {
	seeds := fuzzSeedFrames(tb)
	seeds = append(append(seeds, fuzzSeedMutations(seeds)...), fuzzSeedBounded(tb)...)
	return append(seeds, fuzzSeedLattice(tb)...)
}

func FuzzDecodeFrame(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return // malformed input must error, which it did
		}
		// A frame that decoded must round-trip through the envelope
		// (accepted inputs may normalize reserved bits, so identity — not
		// byte-equality — is the invariant here; golden tests pin bytes).
		blob := EncodeFrame(fr)
		fr2, err := DecodeFrame(blob)
		if err != nil {
			t.Fatalf("re-encoded frame no longer decodes: %v", err)
		}
		if fr2.CodecID() != fr.CodecID() || fr2.N() != fr.N() {
			t.Fatalf("round trip changed identity: %s/%d -> %s/%d",
				fr.CodecID(), fr.N(), fr2.CodecID(), fr2.N())
		}
		// Decompression of small frames must not panic (errors are fine:
		// the payload may still be garbage past the header checks).
		if n := fr.N(); n > 0 && n <= 1<<18 {
			_, _ = fr.Decompress()
		}
	})
}

// TestWriteFuzzCorpus materializes the seed corpus as files in Go's corpus
// format so the seeds survive in git, not only in f.Add calls. Existing
// seed files are never rewritten: they keep frames older encoders wrote
// (seed-000 is a reconstructed-value sz frame), which stay valid inputs.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*updateFuzzCorpus {
		t.Skip("run with -update-fuzz-corpus to rewrite the corpus")
	}
	writeFuzzCorpus(t, "FuzzDecodeFrame", fuzzSeeds(t))
}

// writeFuzzCorpus writes byte seeds in the `go test fuzz v1` corpus file
// format, skipping files that exist (shared helper; also used by
// internal/core's harness via copy).
func writeFuzzCorpus(t *testing.T, fuzzName string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", fuzzName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		path := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
		if _, err := os.Stat(path); err == nil {
			continue
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
