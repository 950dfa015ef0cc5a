package zfp

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/grid"
)

// Fuzz harness for the fixed-rate stream parser and decoder: whatever the
// bytes, Parse must return an error or a Compressed whose decode never
// panics — and must never trust header-claimed geometry (dimensions are
// bounded, the rate must be valid, and the implied block count is capped by
// the payload size; the hostile seeds pin those guards). The seed corpus is
// checked in under testdata/fuzz/FuzzParse; regenerate with
//
//	go test ./internal/zfp -run TestWriteFuzzCorpus -update-fuzz-corpus
//
// and extend coverage any time with
//
//	go test ./internal/zfp -fuzz=FuzzParse -fuzztime=30s

var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false, "rewrite the checked-in fuzz seed corpus")

// hostileHeader builds a structurally valid header claiming a 2³⁰-cell
// field behind a one-byte payload: the parser must reject it from the
// block-count/payload-size relation instead of letting the decoder
// preallocate gigabytes.
func hostileHeader() []byte {
	out := make([]byte, headerSize, headerSize+1)
	copy(out[0:4], magic)
	binary.LittleEndian.PutUint32(out[4:8], 1)
	binary.LittleEndian.PutUint32(out[8:12], 1<<10)
	binary.LittleEndian.PutUint32(out[12:16], 1<<10)
	binary.LittleEndian.PutUint32(out[16:20], 1<<10)
	binary.LittleEndian.PutUint64(out[20:28], math.Float64bits(8))
	return append(out, 0xA5)
}

// nanRateHeader claims a NaN rate over an otherwise valid tiny stream.
func nanRateHeader(valid []byte) []byte {
	out := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(out[20:28], math.Float64bits(math.NaN()))
	return out
}

func fuzzSeedStreams(tb testing.TB) [][]byte {
	tb.Helper()
	encode := func(f *grid.Field3D, rate float64) []byte {
		c, err := Compress(f, Options{Rate: rate})
		if err != nil {
			tb.Fatal(err)
		}
		return c.Bytes()
	}
	smooth := smoothField(8, 41)
	ragged := grid.NewField3D(7, 5, 6)
	for i := range ragged.Data {
		ragged.Data[i] = float32(i%13) * 0.75
	}
	return [][]byte{
		encode(smooth, 8),
		encode(smooth, 0.5),
		encode(ragged, 19),
		encode(grid.NewCube(8), 4), // all-zero blocks
	}
}

func fuzzSeedMutations(valid [][]byte) [][]byte {
	out := [][]byte{
		nil,
		[]byte("ZFPG"),
		[]byte("XXXXxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
		hostileHeader(),
	}
	for _, v := range valid {
		if len(v) < headerSize {
			continue
		}
		out = append(out, v[:headerSize]) // payload stripped
		out = append(out, v[:len(v)-(len(v)-headerSize)/2])
		flip := append([]byte(nil), v...)
		flip[len(flip)-1] ^= 0x40
		out = append(out, flip)
		dims := append([]byte(nil), v...)
		binary.LittleEndian.PutUint32(dims[8:12], 0xFFFFFFFF) // negative Nx
		out = append(out, dims)
		out = append(out, nanRateHeader(v))
	}
	return out
}

// fuzzSeedBounded adds streams spliced by the error-bounded path (a met
// and an unmet bound) and a torn one. They come after the older seeds so
// those keep their corpus file names.
func fuzzSeedBounded(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, eb := range []float64{0.3, 1e-30} {
		c, _, err := CompressBounded(context.Background(), smoothField(8, 42), eb, nil)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, c.Bytes())
	}
	return append(out, out[0][:len(out[0])-3])
}

// fuzzSeeds is the whole seed list, in corpus file order.
func fuzzSeeds(tb testing.TB) [][]byte {
	seeds := fuzzSeedStreams(tb)
	return append(append(seeds, fuzzSeedMutations(seeds)...), fuzzSeedBounded(tb)...)
}

func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return // malformed input must error, which it did
		}
		// A parsed stream must re-serialize to the same bytes (the header
		// and payload are carried verbatim).
		blob := c.Bytes()
		if len(blob) != len(data) {
			t.Fatalf("re-serialization changed length: %d -> %d", len(data), len(blob))
		}
		// Decoding a parsed stream of sane size must not panic; truncated
		// payloads may error, which is fine.
		if c.N() <= 1<<18 {
			if g, err := Decompress(c); err == nil {
				if g.Nx != c.Nx || g.Ny != c.Ny || g.Nz != c.Nz {
					t.Fatalf("decode changed dimensions: %v", g)
				}
			}
		}
	})
}

// TestParseHostileHeaders pins the hardening directly: oversized claims and
// invalid rates must fail fast, without payload-sized allocation.
func TestParseHostileHeaders(t *testing.T) {
	if _, err := Parse(hostileHeader()); err == nil {
		t.Fatal("2^30-cell claim over a 1-byte payload parsed without error")
	}
	valid := fuzzSeedStreams(t)[0]
	if _, err := Parse(nanRateHeader(valid)); err == nil {
		t.Fatal("NaN rate accepted")
	}
	tiny := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(tiny[20:28], math.Float64bits(0.01))
	if _, err := Parse(tiny); err == nil {
		t.Fatal("rate below 0.5 accepted")
	}
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[8:12], 1<<26) // cbx beyond maxBlocksPerAxis
	if _, err := Parse(huge); err == nil {
		t.Fatal("dimension beyond the supported range accepted")
	}
	allocs := testing.AllocsPerRun(10, func() {
		_, _ = Parse(hostileHeader())
	})
	if allocs > 8 {
		t.Fatalf("hostile claim cost %.0f allocations per parse", allocs)
	}
}

// TestWriteFuzzCorpus materializes the seed corpus as files in Go's corpus
// format so the seeds survive in git, not only in f.Add calls.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*updateFuzzCorpus {
		t.Skip("run with -update-fuzz-corpus to rewrite the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzParse")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range fuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		path := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
