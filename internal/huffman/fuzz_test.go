package huffman

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// Fuzz harness for the entropy decoder: whatever the bytes, Decompress must
// return an error or a self-consistent symbol stream — never panic, and
// never trust header-claimed sizes (the symbolCount preallocation is capped
// by the payload bit count; the oversizedClaim seed pins that). The seed
// corpus is checked in under testdata/fuzz/FuzzDecompress; regenerate with
//
//	go test ./internal/huffman -run TestWriteFuzzCorpus -update-fuzz-corpus
//
// and extend coverage any time with
//
//	go test ./internal/huffman -fuzz=FuzzDecompress -fuzztime=30s

var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false, "rewrite the checked-in fuzz seed corpus")

// oversizedClaim builds a hostile header: a tiny, fully valid table and a
// one-byte payload behind a symbolCount claiming 2⁵⁰ symbols. The decoder
// must fail fast on the missing payload instead of preallocating the claim.
func oversizedClaim() []byte {
	stream := binary.AppendUvarint(nil, 1<<50) // symbolCount (hostile)
	stream = binary.AppendUvarint(stream, 2)   // distinct
	stream = binary.AppendUvarint(stream, 3)   // symbol 3
	stream = append(stream, 1)                 // length 1
	stream = binary.AppendUvarint(stream, 9)   // symbol 9
	stream = append(stream, 1)                 // length 1
	return append(stream, 0xA5)                // 8 payload bits
}

func fuzzSeedStreams(tb testing.TB) [][]byte {
	tb.Helper()
	encode := func(sym []int) []byte {
		enc, err := Compress(sym)
		if err != nil {
			tb.Fatal(err)
		}
		return enc
	}
	skew := make([]int, 500)
	for i := range skew {
		skew[i] = 100
		if i%17 == 0 {
			skew[i] = i % 31
		}
	}
	return [][]byte{
		encode([]int{7}),
		encode([]int{0, 1, 0, 0, 1, 0}),
		encode([]int{5, 9, 5, 5, 9, 2, 5, 5, 5, 1}),
		encode(skew),
	}
}

func fuzzSeedMutations(valid [][]byte) [][]byte {
	out := [][]byte{
		nil,
		{0},
		{0x01, 0x00},             // symCount 1, distinct 0
		{0x01, 0x01},             // table truncated mid-entry
		{0x01, 0x01, 0x05},       // entry missing its length byte
		{0x01, 0x01, 0x05, 0x00}, // code length 0
		{0x01, 0x01, 0x05, 0xFF}, // code length 255 > maxCodeLen
		{0x02, 0x02, 0x05, 0x01, 0x05, 0x01, 0xFF}, // duplicate symbol
		{0x04, 0x02, 0x01, 0x01, 0x02, 0x02, 0xFF}, // Kraft violation (1+2 bits leaves a hole, then overcommits)
		oversizedClaim(),
	}
	for _, v := range valid {
		if len(v) < 2 {
			continue
		}
		out = append(out, v[:len(v)/2])
		flip := append([]byte(nil), v...)
		flip[len(flip)-1] ^= 0x40
		out = append(out, flip)
		flip2 := append([]byte(nil), v...)
		flip2[0] ^= 0x7F // mangle the symbol count
		out = append(out, flip2)
	}
	return out
}

// reorderTable re-serializes a valid stream with its code table entries
// rearranged by reorder. Canonical codes derive from (length, symbol), not
// from table order, so any permutation of a valid table decodes the same.
func reorderTable(tb testing.TB, stream []byte, reorder func([]symLen) []symLen) []byte {
	tb.Helper()
	count, n1 := binary.Uvarint(stream)
	distinct, n2 := binary.Uvarint(stream[n1:])
	rest := stream[n1+n2:]
	entries := make([]symLen, distinct)
	for i := range entries {
		sym, ns := binary.Uvarint(rest)
		if ns <= 0 || ns >= len(rest) {
			tb.Fatal("reorderTable: input stream is not valid")
		}
		entries[i] = symLen{sym: int(sym), n: rest[ns]}
		rest = rest[ns+1:]
	}
	entries = reorder(entries)
	out := binary.AppendUvarint(nil, count)
	out = binary.AppendUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = binary.AppendUvarint(out, uint64(e.sym))
		out = append(out, e.n)
	}
	return append(out, rest...)
}

// fuzzSeedTables are SZ-shaped streams: run tokens at 2·32768 + j above the
// quantization codes, with the table stored sorted, reversed, rotated, and
// reversed with one symbol overwritten by its neighbour's. The last keeps
// the code lengths, so only the duplicate check can reject it.
func fuzzSeedTables(tb testing.TB) [][]byte {
	tb.Helper()
	sym := make([]int, 600)
	for i := range sym {
		sym[i] = 32768 + i%5 - 2
		if i%11 == 0 {
			sym[i] = 65536 + 1 + i%6 // run tokens
		}
	}
	sym[3], sym[599] = 0, szTopSym
	enc, err := Compress(sym)
	if err != nil {
		tb.Fatal(err)
	}
	reversed := func(e []symLen) []symLen { slices.Reverse(e); return e }
	return [][]byte{
		enc,
		reorderTable(tb, enc, reversed),
		reorderTable(tb, enc, func(e []symLen) []symLen { return append(e[3:], e[:3]...) }),
		reorderTable(tb, enc, func(e []symLen) []symLen {
			e = reversed(e)
			e[0].sym = e[1].sym
			return e
		}),
	}
}

func FuzzDecompress(f *testing.F) {
	seeds := fuzzSeedStreams(f)
	for _, s := range seeds {
		f.Add(s)
	}
	for _, s := range fuzzSeedMutations(seeds) {
		f.Add(s)
	}
	for _, s := range fuzzSeedTables(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decompress(data)
		if err != nil {
			return // malformed input must error, which it did
		}
		// A stream that decoded must be self-consistent: re-encoding the
		// symbols and decoding again reproduces them (hostile tables can
		// yield symbols outside Compress's domain, e.g. uvarint overflow
		// into negatives — those are excluded from the invariant).
		if len(out) == 0 {
			return
		}
		for _, v := range out {
			if v < 0 {
				return
			}
		}
		enc, err := Compress(out)
		if err != nil {
			t.Fatalf("decoded symbols do not re-encode: %v", err)
		}
		dec, err := Decompress(enc)
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
		if len(dec) != len(out) {
			t.Fatalf("round trip changed length: %d -> %d", len(out), len(dec))
		}
		for i := range out {
			if dec[i] != out[i] {
				t.Fatalf("round trip changed symbol %d: %d -> %d", i, out[i], dec[i])
			}
		}
	})
}

// TestDecompressOversizedSymbolCountClaim pins the hostile-header guard
// directly: the claim must fail with a table/payload error and must not
// drive the preallocation (each decoded symbol costs ≥ 1 payload bit).
func TestDecompressOversizedSymbolCountClaim(t *testing.T) {
	if _, err := Decompress(oversizedClaim()); err == nil {
		t.Fatal("2^50-symbol claim over an 8-bit payload decoded without error")
	}
	allocs := testing.AllocsPerRun(10, func() {
		_, _ = Decompress(oversizedClaim())
	})
	// The output preallocation is capped at 8 entries by the payload size;
	// anything near the claimed 2^50 would show up here (or OOM outright).
	if allocs > 16 {
		t.Fatalf("hostile claim cost %.0f allocations per decode", allocs)
	}
}

// TestWriteFuzzCorpus materializes the seed corpus as files in Go's corpus
// format so the seeds survive in git, not only in f.Add calls.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*updateFuzzCorpus {
		t.Skip("run with -update-fuzz-corpus to rewrite the corpus")
	}
	seeds := fuzzSeedStreams(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzDecompress")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	all := slices.Concat(seeds, fuzzSeedMutations(seeds), fuzzSeedTables(t))
	for i, s := range all {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		path := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
