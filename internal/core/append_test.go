package core

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/sz"
	"repro/internal/zfp"
)

// appendOnto appends through appendTo onto a non-empty prefix with spare
// capacity and fails unless the prefix is untouched and the suffix is want.
func appendOnto(t *testing.T, what string, appendTo func([]byte) []byte, want []byte) {
	t.Helper()
	prefix := []byte("prefix bytes")
	got := appendTo(append(make([]byte, 0, len(prefix)+3), prefix...))
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("%s: prefix changed to %q", what, got[:len(prefix)])
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s: appended %d bytes differ from the %d serialized ones", what, len(got)-len(prefix), len(want))
	}
}

// checkFieldAppend checks every serializer under cf: the field, each frame,
// and each frame's native stream.
func checkFieldAppend(t *testing.T, what string, cf *CompressedField) []byte {
	t.Helper()
	enc := cf.Bytes()
	if len(enc) != cf.encodedSize() {
		t.Fatalf("%s: Bytes wrote %d bytes, encodedSize says %d", what, len(enc), cf.encodedSize())
	}
	appendOnto(t, what+" AppendBytes", cf.AppendBytes, enc)
	for i, p := range cf.Parts {
		body := p.AppendBytes(nil)
		appendOnto(t, what+" frame", p.AppendBytes, body)
		appendOnto(t, what+" AppendFrame", func(dst []byte) []byte { return codec.AppendFrame(dst, p) }, codec.EncodeFrame(p))
		var native interface {
			Bytes() []byte
			AppendBytes([]byte) []byte
		}
		var err error
		switch p.CodecID() {
		case codec.SZ:
			native, err = sz.Parse(body)
		case codec.ZFP:
			native, err = zfp.Parse(body)
		}
		if err != nil || native == nil {
			t.Fatalf("%s partition %d: native %s stream does not parse: %v", what, i, p.CodecID(), err)
		}
		if !bytes.Equal(native.Bytes(), body) {
			t.Fatalf("%s partition %d: native Bytes differs from the frame body", what, i)
		}
		appendOnto(t, what+" native", native.AppendBytes, body)
	}
	return enc
}

// readFuzzCorpus returns the []byte values of a checked-in Go fuzz corpus.
func readFuzzCorpus(t *testing.T, fuzzName string) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", fuzzName, "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no %s corpus: %v", fuzzName, err)
	}
	var out [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		v, err := strconv.Unquote(lit)
		if len(lines) != 2 || !ok || err != nil {
			t.Fatalf("%s: not a one-value []byte corpus file (%v)", p, err)
		}
		out = append(out, []byte(v))
	}
	return out
}

// TestAppendBytesMatchesGoldens: the append serializers reproduce every
// checked-in golden archive byte for byte, a stream rewritten step by step
// through one StreamWriter (whose buffer every step reuses) equals the
// golden stream, and every parseable fuzz seed re-serializes identically
// through both forms.
func TestAppendBytesMatchesGoldens(t *testing.T) {
	for _, name := range []string{"golden_sz.acfd", "golden_zfp.acfd", "golden_sz_lattice.acfd"} {
		data := writeOrReadGolden(t, name, nil)
		cf, err := ParseCompressedField(data)
		if err != nil {
			t.Fatal(err)
		}
		if enc := checkFieldAppend(t, name, cf); !bytes.Equal(enc, data) {
			t.Fatalf("%s: re-serialized archive differs from the fixture", name)
		}
	}

	stream := writeOrReadGolden(t, "golden_stream.acs", nil)
	sr, err := OpenStream(bytes.NewReader(stream), int64(len(stream)))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sw, err := NewStreamWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < sr.Steps(); s++ {
		fields, err := sr.ReadStep(s)
		if err != nil {
			t.Fatal(err)
		}
		for name, cf := range fields {
			checkFieldAppend(t, name, cf)
		}
		if err := sw.WriteStep(fields); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), stream) {
		t.Fatalf("rewritten stream differs from golden_stream.acs in %d bytes", diffCount(out.Bytes(), stream))
	}

	parsed := 0
	for _, seed := range readFuzzCorpus(t, "FuzzParseCompressedField") {
		if cf, err := ParseCompressedField(seed); err == nil {
			checkFieldAppend(t, "fuzz seed", cf)
			parsed++
		}
	}
	if parsed == 0 {
		t.Fatal("no FuzzParseCompressedField seed parses")
	}
}

// TestSteadyStateWriteStepAllocationFlat: once one same-shaped step has
// been written, WriteStep serializes into the writer's own buffer, so a
// further step allocates a small constant (the amortized index append)
// however large its fields are. Checked at two field sizes 8× apart.
func TestSteadyStateWriteStepAllocationFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts need an uninstrumented build")
	}
	e := engine(t, Config{PartitionDim: 16, Workers: 1})
	for _, n := range []int{32, 64} {
		f := grid.NewCube(n)
		for i := range f.Data {
			x, y, z := f.Coords(i)
			f.Data[i] = float32(x%7) + 0.3*float32(y) - 0.2*float32(z*z%11)
		}
		rho, err := e.CompressStatic(context.Background(), f, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		step := map[string]*CompressedField{"rho": rho, "temperature": rho, "velocity_x": rho}
		sw, err := NewStreamWriter(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		write := func() {
			if err := sw.WriteStep(step); err != nil {
				t.Fatal(err)
			}
		}
		write() // sizes the writer's buffer
		stepBytes := 3 * rho.encodedSize()
		var before, after runtime.MemStats
		const runs = 50
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			write()
		}
		runtime.ReadMemStats(&after)
		perStep := float64(after.TotalAlloc-before.TotalAlloc) / runs
		allocs := testing.AllocsPerRun(runs, write)
		t.Logf("%d³: %d-byte steps, %.0f B and %.2f allocs per WriteStep", n, stepBytes, perStep, allocs)
		if perStep > 512 || allocs > 1 {
			t.Errorf("%d³: steady-state WriteStep of a %d-byte step allocates %.0f B in %.2f allocs (limit 512 B, 1 alloc)",
				n, stepBytes, perStep, allocs)
		}
	}
}
