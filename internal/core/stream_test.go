package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/nyx"
)

// streamField compresses one small deterministic field for stream tests.
func streamField(t *testing.T, e *Engine, scale float32) *CompressedField {
	t.Helper()
	f := grid.NewCube(16)
	for i := range f.Data {
		x, y, z := f.Coords(i)
		f.Data[i] = scale * float32(x+2*y+3*z)
	}
	cf, err := e.CompressStatic(context.Background(), f, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

func TestStreamRoundTrip(t *testing.T) {
	e := engine(t, Config{PartitionDim: 8})
	f := field(t, nyx.FieldBaryonDensity)
	cal, err := e.Calibrate(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Plan(context.Background(), f, cal, PlanOptions{AvgEB: 0.1})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 5
	want := make([]*CompressedField, steps)
	for i := 0; i < steps; i++ {
		cf, err := e.CompressAdaptive(context.Background(), f, plan)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cf
		other := streamField(t, e, float32(i+1))
		if err := sw.WriteStep(map[string]*CompressedField{
			"baryon_density": cf,
			"synthetic":      other,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if sw.Steps() != steps {
		t.Fatalf("writer reports %d steps, want %d", sw.Steps(), steps)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := sw.WriteStep(map[string]*CompressedField{"x": want[0]}); err == nil {
		t.Error("write after close accepted")
	}

	sr, err := OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Steps() != steps {
		t.Fatalf("reader reports %d steps, want %d", sr.Steps(), steps)
	}
	// Read steps out of order: each must decode independently.
	for _, i := range []int{3, 0, 4, 2, 1} {
		fields, err := sr.ReadStep(i)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if len(fields) != 2 {
			t.Fatalf("step %d has %d fields, want 2", i, len(fields))
		}
		got := fields["baryon_density"]
		if got == nil {
			t.Fatalf("step %d missing baryon_density", i)
		}
		if got.CompressedSize() != want[i].CompressedSize() || got.Codec != want[i].Codec {
			t.Errorf("step %d: size %d codec %s, want %d %s",
				i, got.CompressedSize(), got.Codec, want[i].CompressedSize(), want[i].Codec)
		}
		wantField, err := want[i].Decompress(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		gotField, err := got.Decompress(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(float32Bits(wantField.Data), float32Bits(gotField.Data)) {
			t.Errorf("step %d decoded field differs from source", i)
		}
	}
	if _, err := sr.ReadStep(steps); err == nil {
		t.Error("out-of-range step accepted")
	}
	if _, err := sr.ReadStep(-1); err == nil {
		t.Error("negative step accepted")
	}
}

func float32Bits(xs []float32) []byte {
	out := make([]byte, 0, 4*len(xs))
	var b [4]byte
	for _, x := range xs {
		u := math.Float32bits(x)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		out = append(out, b[:]...)
	}
	return out
}

func TestStreamEmpty(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteStep(nil); err == nil {
		t.Error("empty step accepted")
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Steps() != 0 {
		t.Errorf("empty stream has %d steps", sr.Steps())
	}
}

// failAfterWriter accepts n bytes then errors, to exercise write failures.
type failAfterWriter struct {
	n int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	w.n -= len(p)
	return len(p), nil
}

// TestStreamCloseErrorIsSticky: a failed footer write must keep failing on
// repeated Close calls — a deferred second Close may not report success on
// a truncated stream.
func TestStreamCloseErrorIsSticky(t *testing.T) {
	e := engine(t, Config{PartitionDim: 8})
	w := &failAfterWriter{n: 1 << 20}
	sw, err := NewStreamWriter(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteStep(map[string]*CompressedField{"f": streamField(t, e, 1)}); err != nil {
		t.Fatal(err)
	}
	w.n = 0 // every write from here on fails
	if err := sw.Close(); err == nil {
		t.Fatal("footer write failure not reported")
	}
	if err := sw.Close(); err == nil {
		t.Fatal("second Close masked the footer failure")
	}
}

// recordingReaderAt records every ReadAt range, so tests can assert which
// byte ranges a read touched.
type recordingReaderAt struct {
	r     io.ReaderAt
	reads [][2]int64 // offset, length
}

func (r *recordingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	r.reads = append(r.reads, [2]int64{off, int64(len(p))})
	return r.r.ReadAt(p, off)
}

// TestStreamSeekIsO1 asserts the random-access contract: reading step k
// touches only step k's byte range — no scan through earlier steps, so
// access cost is independent of position in the stream.
func TestStreamSeekIsO1(t *testing.T) {
	e := engine(t, Config{PartitionDim: 8})
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 9
	for i := 0; i < steps; i++ {
		if err := sw.WriteStep(map[string]*CompressedField{
			"f": streamField(t, e, float32(i+1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	rec := &recordingReaderAt{r: bytes.NewReader(buf.Bytes())}
	sr, err := OpenStream(rec, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	openReads := len(rec.reads)

	last := steps - 1
	if _, err := sr.ReadStep(last); err != nil {
		t.Fatal(err)
	}
	reads := rec.reads[openReads:]
	if len(reads) != 1 {
		t.Fatalf("reading one step issued %d reads, want 1", len(reads))
	}
	lo, n := reads[0][0], reads[0][1]
	// The step's range must lie strictly inside the data area and after
	// all earlier steps: the 8 preceding steps were never touched.
	e8 := sr.index[last]
	if uint64(lo) != e8.Offset || uint64(n) != e8.Length {
		t.Errorf("read [%d,+%d), want step %d range [%d,+%d)", lo, n, last, e8.Offset, e8.Length)
	}
	for i := 0; i < last; i++ {
		prev := sr.index[i]
		if uint64(lo) < prev.Offset+prev.Length {
			t.Fatalf("reading step %d touched bytes of step %d", last, i)
		}
	}
}

func TestOpenStreamRejectsCorruption(t *testing.T) {
	e := engine(t, Config{PartitionDim: 8})
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteStep(map[string]*CompressedField{"f": streamField(t, e, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(name string, mutate func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		b = mutate(b)
		if _, err := OpenStream(bytes.NewReader(b), int64(len(b))); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("bad version", func(b []byte) []byte { b[4] = 9; return b })
	corrupt("bad trailer", func(b []byte) []byte { b[len(b)-1] = 'Y'; return b })
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)-5] })
	corrupt("short", func(b []byte) []byte { return b[:10] })
	corrupt("index offset", func(b []byte) []byte {
		// The index offset lives in trailer bytes [4,12) from its start.
		off := len(b) - streamTrailerBytes + 4
		b[off] = 0xFF
		return b
	})

	// Flipping a byte inside the step payload must fail at ReadStep (the
	// codec-native CRC), not at open: the index itself is still valid.
	b := append([]byte(nil), good...)
	b[streamHeaderBytes+40] ^= 0xFF
	sr, err := OpenStream(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatalf("payload corruption rejected at open: %v", err)
	}
	if _, err := sr.ReadStep(0); err == nil {
		t.Error("corrupted step payload decoded without error")
	}
}

// flakyReaderAt fails every ReadAt with a transient I/O error.
type flakyReaderAt struct{ err error }

func (f flakyReaderAt) ReadAt([]byte, int64) (int, error) { return 0, f.err }

// TestStreamIOErrorIsNotCorruption pins the read-failure taxonomy: a
// transient I/O error opening a stream must NOT classify as
// ErrCorruptArchive (only truncation — EOF-family errors — does), so
// callers that quarantine corrupt archives never condemn a healthy file
// over a flaky read.
func TestStreamIOErrorIsNotCorruption(t *testing.T) {
	transient := errors.New("read: transient EIO")
	_, err := OpenStream(flakyReaderAt{err: transient}, 1<<20)
	if err == nil {
		t.Fatal("open succeeded on a failing reader")
	}
	if !errors.Is(err, transient) {
		t.Fatalf("transient cause lost: %v", err)
	}
	if errors.Is(err, apierr.ErrCorruptArchive) {
		t.Fatalf("transient I/O error classified as corruption: %v", err)
	}

	// Truncation through the same path IS corruption.
	_, err = OpenStream(flakyReaderAt{err: io.ErrUnexpectedEOF}, 1<<20)
	if !errors.Is(err, apierr.ErrCorruptArchive) {
		t.Fatalf("truncated read not classified as corruption: %v", err)
	}
}

// countingWriter counts writes so tests can assert nothing reaches the
// destination after a failure poisoned the writer.
type countingWriter struct {
	inner  io.Writer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.inner.Write(p)
}

// TestStreamWriteStepErrorIsSticky: a failed WriteStep must poison the
// writer. The destination may hold a short write at an unknown offset, so
// a later WriteStep appending at the stale sw.off — or a Close indexing
// steps at stale offsets — would silently corrupt the stream.
func TestStreamWriteStepErrorIsSticky(t *testing.T) {
	e := engine(t, Config{PartitionDim: 8})
	fail := &failAfterWriter{n: 1 << 20}
	count := &countingWriter{inner: fail}
	sw, err := NewStreamWriter(count)
	if err != nil {
		t.Fatal(err)
	}
	step := map[string]*CompressedField{"f": streamField(t, e, 1)}
	if err := sw.WriteStep(step); err != nil {
		t.Fatal(err)
	}
	fail.n = 0 // every write from here on fails
	werr := sw.WriteStep(step)
	if werr == nil {
		t.Fatal("failed step write not reported")
	}
	if sw.Steps() != 1 {
		t.Fatalf("failed step counted: Steps() = %d, want 1", sw.Steps())
	}

	writesAfterFailure := count.writes
	fail.n = 1 << 20 // the destination "recovers" — the writer must not
	if err := sw.WriteStep(step); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("WriteStep after failure = %v, want the sticky original failure", err)
	}
	if err := sw.Close(); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("Close after failed step write = %v, want the sticky original failure", err)
	}
	if err := sw.Close(); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("second Close after failed step write = %v, want the sticky original failure", err)
	}
	if count.writes != writesAfterFailure {
		t.Fatalf("poisoned writer still wrote %d times to the destination",
			count.writes-writesAfterFailure)
	}
}

// hostileStepStream writes a valid two-field stream, then rewrites the two
// (equal-length) field names inside the step block in place — the index,
// footer, and payloads stay untouched, so only parseStepBlock's name
// validation can catch the tampering.
func hostileStepStream(t *testing.T, e *Engine, name1, name2 string) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteStep(map[string]*CompressedField{
		"aa": streamField(t, e, 1),
		"bb": streamField(t, e, 2),
	}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Step block layout from streamHeaderBytes: u32 count, then per field
	// u16 nameLen, name, u32 payloadLen, payload.
	pos := streamHeaderBytes + 4
	nameAt := func() int {
		n := int(binary.LittleEndian.Uint16(b[pos : pos+2]))
		if n != 2 {
			t.Fatalf("test expects 2-byte names, got %d", n)
		}
		return pos + 2
	}
	at := nameAt()
	copy(b[at:at+2], name1)
	pos = at + 2
	pos += 4 + int(binary.LittleEndian.Uint32(b[pos:pos+4]))
	at = nameAt()
	copy(b[at:at+2], name2)
	return b
}

// TestStreamRejectsHostileStepNames: the writer emits sorted unique field
// names, so a step block with a duplicated or out-of-order name is hostile
// and must be rejected as ErrCorruptArchive instead of collapsing into the
// map (duplicate) or re-serializing differently than it parsed (unsorted).
func TestStreamRejectsHostileStepNames(t *testing.T) {
	e := engine(t, Config{PartitionDim: 8})
	cases := []struct {
		name         string
		name1, name2 string
	}{
		{"duplicate", "aa", "aa"},
		{"out of order", "zz", "bb"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := hostileStepStream(t, e, tc.name1, tc.name2)
			sr, err := OpenStream(bytes.NewReader(b), int64(len(b)))
			if err != nil {
				t.Fatalf("open rejected a stream with a valid index: %v", err)
			}
			_, err = sr.ReadStep(0)
			if err == nil {
				t.Fatal("hostile step names accepted")
			}
			if !errors.Is(err, apierr.ErrCorruptArchive) {
				t.Fatalf("hostile step names not classified as corruption: %v", err)
			}
		})
	}

	// The untampered layout (sorted, unique) must still read back.
	b := hostileStepStream(t, e, "aa", "bb")
	sr, err := OpenStream(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	fields, err := sr.ReadStep(0)
	if err != nil {
		t.Fatalf("sorted unique names rejected: %v", err)
	}
	if len(fields) != 2 {
		t.Fatalf("got %d fields, want 2", len(fields))
	}
}

// TestStreamReaderConcurrentReaders is the concurrent-reader contract
// under the race detector: 16 goroutines seek different steps of one open
// stream at once — through ReadStep, StepSection, and StepLayout — and
// every read must match the single-reader golden. StreamReader keeps no
// cursor, so no synchronization beyond the shared *bytes.Reader's own
// ReadAt is involved.
func TestStreamReaderConcurrentReaders(t *testing.T) {
	e := engine(t, Config{PartitionDim: 8})
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 8
	for i := 0; i < steps; i++ {
		if err := sw.WriteStep(map[string]*CompressedField{
			"alpha": streamField(t, e, float32(i+1)),
			"beta":  streamField(t, e, float32(2*i+1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	sr, err := OpenStream(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}

	// Single-reader goldens: serialized field bytes per step.
	golden := make([]map[string][]byte, steps)
	for i := 0; i < steps; i++ {
		fields, err := sr.ReadStep(i)
		if err != nil {
			t.Fatal(err)
		}
		golden[i] = make(map[string][]byte, len(fields))
		for name, cf := range fields {
			golden[i][name] = cf.Bytes()
		}
	}

	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 8; it++ {
				step := (g + it) % steps
				fields, err := sr.ReadStep(step)
				if err != nil {
					errs <- err
					return
				}
				for name, cf := range fields {
					if !bytes.Equal(cf.Bytes(), golden[step][name]) {
						errs <- fmt.Errorf("reader %d: step %d field %q diverges", g, step, name)
						return
					}
				}
				sec, err := sr.StepSection(step)
				if err != nil {
					errs <- err
					return
				}
				blk, err := io.ReadAll(sec)
				if err != nil {
					errs <- err
					return
				}
				if _, err := parseStepBlock(blk, step, codec.Default); err != nil {
					errs <- fmt.Errorf("reader %d: section of step %d does not parse: %w", g, step, err)
					return
				}
				if _, err := sr.StepLayout(step); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStepLayoutLocatesBytes pins the structural map against the real
// byte stream: every field range must re-parse to the archived field, and
// every partition body range must hold exactly the codec-native stream
// the decoded frame serializes to.
func TestStepLayoutLocatesBytes(t *testing.T) {
	e := engine(t, Config{PartitionDim: 8})
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteStep(map[string]*CompressedField{
		"alpha": streamField(t, e, 1),
		"beta":  streamField(t, e, 3),
	}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	sr, err := OpenStream(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	layouts, err := sr.StepLayout(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(layouts) != 2 || layouts[0].Name != "alpha" || layouts[1].Name != "beta" {
		t.Fatalf("unexpected layout fields: %+v", layouts)
	}
	for _, fl := range layouts {
		blob := raw[fl.ArchiveOffset : fl.ArchiveOffset+fl.ArchiveLength]
		cf, err := ParseCompressedField(blob)
		if err != nil {
			t.Fatalf("%s: archive range does not parse: %v", fl.Name, err)
		}
		if cf.Nx != fl.Nx || cf.Ny != fl.Ny || cf.Nz != fl.Nz || cf.PartitionDim != fl.PartitionDim {
			t.Fatalf("%s: layout geometry %dx%dx%d/%d disagrees with parsed archive",
				fl.Name, fl.Nx, fl.Ny, fl.Nz, fl.PartitionDim)
		}
		if len(fl.Partitions) != len(cf.Parts) {
			t.Fatalf("%s: layout has %d partitions, archive %d", fl.Name, len(fl.Partitions), len(cf.Parts))
		}
		for i, pl := range fl.Partitions {
			body := raw[pl.BodyOffset : pl.BodyOffset+pl.BodyLength]
			if pl.Codec != cf.Parts[i].CodecID() {
				t.Fatalf("%s partition %d: codec %q vs frame %q", fl.Name, i, pl.Codec, cf.Parts[i].CodecID())
			}
			if !bytes.Equal(body, cf.Parts[i].AppendBytes(nil)) {
				t.Fatalf("%s partition %d: body range diverges from frame bytes", fl.Name, i)
			}
		}
	}
	if _, err := sr.StepLayout(1); err == nil {
		t.Fatal("out-of-range step accepted")
	}
	if _, err := sr.StepSection(-1); err == nil {
		t.Fatal("negative step accepted")
	}
}
