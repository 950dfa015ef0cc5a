package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz harnesses for the archive readers, v2 (single field) and v3
// (multi-snapshot stream): malformed archives must error, never panic and
// never allocate absurdly. Seeds come from the golden fixtures plus
// targeted corruptions; the checked-in corpus lives under testdata/fuzz
// and regenerates with
//
//	go test ./internal/core -run TestWriteArchiveFuzzCorpus -update-golden

// archiveFuzzSeeds returns the golden v2 fixtures plus corruptions.
func archiveFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	seeds := [][]byte{
		nil,
		[]byte("ACFD"),
		bytes.Repeat([]byte{0xFF}, archiveHeader),
	}
	for _, name := range []string{"golden_sz.acfd", "golden_zfp.acfd"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			tb.Skipf("golden fixture missing: %v", err)
		}
		seeds = append(seeds, data, data[:len(data)*2/3])
		flip := append([]byte(nil), data...)
		flip[archiveHeader+2] ^= 0x80
		seeds = append(seeds, flip)
		// A huge partition count with a tiny body.
		big := append([]byte(nil), data[:archiveHeader]...)
		big[24], big[25], big[26], big[27] = 0xFF, 0xFF, 0xFF, 0x7F
		seeds = append(seeds, big)
	}
	return seeds
}

// streamFuzzSeeds returns the golden v3 fixture plus corruptions.
func streamFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	seeds := [][]byte{
		nil,
		[]byte("ACS3"),
		bytes.Repeat([]byte{0x41}, streamHeaderBytes+streamTrailerBytes),
	}
	data, err := os.ReadFile(filepath.Join("testdata", "golden_stream.acs"))
	if err != nil {
		tb.Skipf("golden fixture missing: %v", err)
	}
	seeds = append(seeds, data, data[:len(data)-3], data[:len(data)/2])
	for _, off := range []int{4, streamHeaderBytes + 1, len(data) - streamTrailerBytes + 2, len(data) - 2} {
		flip := append([]byte(nil), data...)
		flip[off] ^= 0xFF
		seeds = append(seeds, flip)
	}
	seeds = append(seeds, mutateStepNames(data)...)
	return seeds
}

// mutateStepNames returns hostile variants of a valid stream whose first
// step block's field names violate the writer's sorted-unique invariant —
// an out-of-sorted-order first name, and (when the first two names have
// equal length) a duplicated name — with the index, footer, and payloads
// untouched, so only parseStepBlock's name validation can reject them.
// Returns nil when the first step has fewer than two fields.
func mutateStepNames(data []byte) [][]byte {
	pos := streamHeaderBytes
	if len(data) < pos+4 {
		return nil
	}
	count := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
	pos += 4
	if count < 2 {
		return nil
	}
	nameAt := func() (off, n int, ok bool) {
		if pos+2 > len(data) {
			return 0, 0, false
		}
		n = int(binary.LittleEndian.Uint16(data[pos : pos+2]))
		off = pos + 2
		pos = off + n
		if pos+4 > len(data) {
			return 0, 0, false
		}
		payload := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
		pos += 4 + payload
		return off, n, pos <= len(data)
	}
	off1, n1, ok := nameAt()
	if !ok {
		return nil
	}
	off2, n2, ok := nameAt()
	if !ok {
		return nil
	}
	outOfOrder := append([]byte(nil), data...)
	outOfOrder[off1] = 0xFE // sorts after any writer-produced name
	out := [][]byte{outOfOrder}
	if n1 == n2 {
		dup := append([]byte(nil), data...)
		copy(dup[off2:off2+n2], dup[off1:off1+n1])
		out = append(out, dup)
	}
	return out
}

func FuzzParseCompressedField(f *testing.F) {
	for _, s := range archiveFuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := ParseCompressedField(data)
		if err != nil {
			return
		}
		// A parsed archive must survive a re-encode/re-parse cycle.
		// (Byte-exact stability is asserted on writer-produced archives by
		// the golden tests; arbitrary accepted inputs may normalize, e.g.
		// reserved flag bits.)
		if _, err := ParseCompressedField(cf.Bytes()); err != nil {
			t.Fatalf("re-encoded archive no longer parses: %v", err)
		}
		// Decompression of plausible-size fields must not panic; errors
		// are expected when frame dims disagree with the partitioning.
		if cf.N() <= 1<<18 {
			_, _ = cf.Decompress(context.Background())
		}
	})
}

// recoverFuzzSeeds seeds the recovery fuzzer: everything the strict-open
// fuzzer sees, plus torn-tail artifacts only RecoverStream accepts —
// notably a hostile HALF-WRITTEN FOOTER (a crash mid-Close or
// mid-checkpoint): complete steps followed by a prefix of a valid footer,
// and variants whose surviving footer bytes are bit-flipped.
func recoverFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	seeds := streamFuzzSeeds(tb)
	data, err := os.ReadFile(filepath.Join("testdata", "golden_stream.acs"))
	if err != nil {
		return seeds
	}
	sr, err := OpenStream(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return seeds
	}
	last := sr.index[len(sr.index)-1]
	stepsEnd := int(last.Offset + last.Length)
	// Half-written footers of several lengths, including one byte short of
	// complete (the nastiest: everything validates except the trailer).
	for _, keep := range []int{1, 7, (len(data) - stepsEnd) / 2, len(data) - stepsEnd - 1} {
		if keep > 0 && stepsEnd+keep < len(data) {
			seeds = append(seeds, data[:stepsEnd+keep])
		}
	}
	// A half footer whose surviving bytes are corrupted — recovery must
	// treat it as tail garbage, not index truth.
	hostile := append([]byte(nil), data[:stepsEnd+10]...)
	for i := stepsEnd; i < len(hostile); i++ {
		hostile[i] ^= 0xA5
	}
	seeds = append(seeds, hostile)
	// A torn stream whose tail starts like a plausible next step (field
	// count 1, huge name length) — the delimiter must bounds-check it.
	tease := append([]byte(nil), data[:stepsEnd]...)
	tease = append(tease, 1, 0, 0, 0, 0xFF, 0xFF, 'x')
	seeds = append(seeds, tease)
	return seeds
}

// FuzzRecoverStream holds the recovery invariants under hostile input:
// never panic, never salvage a step the strict parser would reject, and
// always produce a salvage that re-serializes into a stream the strict
// OpenStream accepts with the same step count.
func FuzzRecoverStream(f *testing.F) {
	for _, s := range recoverFuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, rep, err := RecoverStream(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		if rep.Steps != sr.Steps() {
			t.Fatalf("report says %d steps, reader has %d", rep.Steps, sr.Steps())
		}
		for i := 0; i < sr.Steps(); i++ {
			_, err := sr.ReadStep(i)
			// A scan-salvaged step was validated block by block and must
			// re-read. The Clean path trusts an intact footer (the crash
			// model: torn tails, not bit rot mid-stream), so its steps may
			// still fail content validation — but never panic.
			if err != nil && !rep.Clean {
				t.Fatalf("scan-salvaged step %d does not re-read: %v", i, err)
			}
		}
		var repaired bytes.Buffer
		if _, err := sr.WriteTo(&repaired); err != nil {
			t.Fatalf("salvage does not re-serialize: %v", err)
		}
		re, err := OpenStream(bytes.NewReader(repaired.Bytes()), int64(repaired.Len()))
		if err != nil {
			t.Fatalf("repaired stream rejected by strict open: %v", err)
		}
		if re.Steps() != rep.Steps {
			t.Fatalf("repaired stream has %d steps, salvage had %d", re.Steps(), rep.Steps)
		}
	})
}

func FuzzOpenStream(f *testing.F) {
	for _, s := range streamFuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := OpenStream(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// The index passed validation: every step must be reachable and
		// either decode or error cleanly.
		for i := 0; i < sr.Steps(); i++ {
			if fields, err := sr.ReadStep(i); err == nil {
				for _, cf := range fields {
					if cf.N() <= 1<<18 {
						_, _ = cf.Decompress(context.Background())
					}
				}
			}
		}
	})
}

// TestWriteArchiveFuzzCorpus materializes the seed corpora as checked-in
// files in Go's corpus format (reuses the golden -update-golden flag: the
// corpus derives from the fixtures, so they regenerate together). It only
// adds seeds: an existing seed file is never rewritten.
func TestWriteArchiveFuzzCorpus(t *testing.T) {
	if !*updateGolden {
		t.Skip("run with -update-golden to rewrite the corpus")
	}
	write := func(fuzzName string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
			path := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
			// Existing seeds stay: a seed rebuilt from a fresh compression
			// must not replace the older encoder's bytes it pins.
			if _, err := os.Stat(path); err == nil {
				continue
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("FuzzParseCompressedField", archiveFuzzSeeds(t))
	write("FuzzOpenStream", streamFuzzSeeds(t))
	write("FuzzRecoverStream", recoverFuzzSeeds(t))
}
