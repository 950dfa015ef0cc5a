package codec

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// readCorpus returns the []byte values of a checked-in Go fuzz corpus.
func readCorpus(tb testing.TB, fuzzName string) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", fuzzName, "*"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no %s corpus: %v", fuzzName, err)
	}
	var out [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		if len(lines) != 2 || !ok {
			tb.Fatalf("%s: not a one-value []byte corpus file", p)
		}
		v, err := strconv.Unquote(lit)
		if err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		out = append(out, []byte(v))
	}
	return out
}

// checkAppend asserts that appending onto a non-empty prefix leaves the
// prefix untouched and appends exactly want.
func checkAppend(t *testing.T, what string, appendTo func([]byte) []byte, want []byte) {
	t.Helper()
	prefix := []byte("prefix bytes")
	// Spare capacity past the prefix: an appender that wrote before
	// len(dst) would corrupt the prefix, one that reallocated wrongly
	// would lose it.
	dst := append(make([]byte, 0, len(prefix)+3), prefix...)
	got := appendTo(dst)
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("%s: prefix changed to %q", what, got[:len(prefix)])
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s: appended %d bytes differ from the %d serialized ones", what, len(got)-len(prefix), len(want))
	}
}

// TestAppendBytesMatchesBytes: every serializer's append form equals its
// allocating form, for both frame kinds and both native stream types, on
// fresh frames and on every decodable frame of the checked-in corpus.
func TestAppendBytesMatchesBytes(t *testing.T) {
	frames := append(readCorpus(t, "FuzzDecodeFrame"), fuzzSeeds(t)...)
	decoded := map[ID]int{}
	for i, data := range frames {
		f, err := DecodeFrame(data)
		if err != nil {
			continue
		}
		decoded[f.CodecID()]++
		what := fmt.Sprintf("%s frame %d", f.CodecID(), i)
		enc := EncodeFrame(f)
		if len(enc) != FrameOverhead(f.CodecID())+f.CompressedSize() {
			t.Fatalf("%s: EncodeFrame wrote %d bytes, overhead+size is %d",
				what, len(enc), FrameOverhead(f.CodecID())+f.CompressedSize())
		}
		checkAppend(t, what+" AppendFrame", func(dst []byte) []byte { return AppendFrame(dst, f) }, enc)
		body := enc[FrameOverhead(f.CodecID()):]
		checkAppend(t, what+" Frame.AppendBytes", f.AppendBytes, body)
		switch fr := f.(type) {
		case szFrame:
			if !bytes.Equal(fr.c.Bytes(), body) {
				t.Fatalf("%s: sz.Compressed.Bytes differs from the frame body", what)
			}
			checkAppend(t, what+" sz.Compressed.AppendBytes", fr.c.AppendBytes, body)
		case zfpFrame:
			if !bytes.Equal(fr.c.Bytes(), body) {
				t.Fatalf("%s: zfp.Compressed.Bytes differs from the frame body", what)
			}
			checkAppend(t, what+" zfp.Compressed.AppendBytes", fr.c.AppendBytes, body)
		default:
			t.Fatalf("%s: unexpected frame type %T", what, f)
		}
	}
	if decoded[SZ] == 0 || decoded[ZFP] == 0 {
		t.Fatalf("corpus decoded %v frames; need both kinds", decoded)
	}
}
