package codec

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

// testBrick builds a smooth 16³ brick with structure on several scales so
// both codecs have something real to predict/transform.
func testBrick() ([]float32, int, int, int) {
	const n = 16
	data := make([]float32, n*n*n)
	i := 0
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				v := math.Sin(float64(x)*0.4) * math.Cos(float64(y)*0.3)
				v += 0.5 * math.Sin(float64(z)*0.7+float64(x)*0.1)
				v += 2 // keep strictly positive for PWREL paths
				data[i] = float32(v)
				i++
			}
		}
	}
	return data, n, n, n
}

func maxErr(t *testing.T, a, b []float32) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("length mismatch: %d vs %d", len(a), len(b))
	}
	m, _ := stats.MaxAbsError(a, b)
	return m
}

// TestRoundTripThroughInterface drives both registered codecs end to end
// through the Codec interface: compress, envelope-encode, decode against
// the registry, decompress, and check the reconstruction.
func TestRoundTripThroughInterface(t *testing.T) {
	data, nx, ny, nz := testBrick()
	cases := []struct {
		id  ID
		opt Options
		// bound is the max error the reconstruction must satisfy; for the
		// fixed-rate zfp frame it is a generous sanity bound, not a
		// guarantee.
		bound float64
	}{
		{SZ, Options{ErrorBound: 0.01}, 0.01},
		{SZ, Options{ErrorBound: 0.01, Predictor: MeanNeighbor}, 0.01},
		{ZFP, Options{Rate: 16}, 0.1},
	}
	for _, tc := range cases {
		c, err := Lookup(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.Compress(data, nx, ny, nz, tc.opt, &Scratch{})
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if f.CodecID() != tc.id {
			t.Errorf("frame tagged %q, want %q", f.CodecID(), tc.id)
		}
		if gx, gy, gz := f.Dims(); gx != nx || gy != ny || gz != nz {
			t.Errorf("%s: dims %dx%dx%d", tc.id, gx, gy, gz)
		}
		if f.N() != len(data) || f.CompressedSize() <= 0 {
			t.Errorf("%s: N %d size %d", tc.id, f.N(), f.CompressedSize())
		}

		// Self-describing envelope round trip.
		blob := EncodeFrame(f)
		parsed, err := DecodeFrame(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.id, err)
		}
		if parsed.CodecID() != tc.id {
			t.Errorf("parsed frame tagged %q, want %q", parsed.CodecID(), tc.id)
		}
		direct, err := f.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		viaBytes, err := parsed.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		if me := maxErr(t, data, direct); me > tc.bound {
			t.Errorf("%s: max error %v > %v", tc.id, me, tc.bound)
		}
		for i := range direct {
			if direct[i] != viaBytes[i] {
				t.Fatalf("%s: envelope round trip changed data at %d", tc.id, i)
			}
		}
	}
}

// TestZFPBoundedRateSearch checks the error-bound-driven rate search: the
// achieved error must meet the bound, and a looser bound must not cost
// more bits.
func TestZFPBoundedRateSearch(t *testing.T) {
	data, nx, ny, nz := testBrick()
	c, err := Lookup(ZFP)
	if err != nil {
		t.Fatal(err)
	}
	var prevSize int
	for i, eb := range []float64{1e-4, 1e-2, 0.5} {
		f, err := c.Compress(data, nx, ny, nz, Options{ErrorBound: eb}, nil)
		if err != nil {
			t.Fatal(err)
		}
		recon, err := f.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		if me := maxErr(t, data, recon); me > eb {
			t.Errorf("eb %g: achieved max error %g", eb, me)
		}
		if f.ErrorBound() != eb {
			t.Errorf("eb %g: frame reports bound %g", eb, f.ErrorBound())
		}
		if i > 0 && f.CompressedSize() > prevSize {
			t.Errorf("looser bound %g cost more bits (%d > %d)", eb, f.CompressedSize(), prevSize)
		}
		prevSize = f.CompressedSize()
	}
	if _, err := c.Compress(data, nx, ny, nz, Options{}, nil); err == nil {
		t.Error("zfp accepted neither rate nor error bound")
	}
}

// TestDecodeFrameRejectsUnknownCodec is the frame-header contract: an
// envelope naming an unregistered codec must fail with ErrUnknownCodec and
// an actionable message.
func TestDecodeFrameRejectsUnknownCodec(t *testing.T) {
	blob := append([]byte(frameMagic), frameVersion, 4)
	blob = append(blob, "lz77"...)
	blob = append(blob, 0, 1, 2, 3)
	_, err := DecodeFrame(blob)
	if !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("got %v, want ErrUnknownCodec", err)
	}
	if !strings.Contains(err.Error(), `"lz77"`) || !strings.Contains(err.Error(), "sz") {
		t.Errorf("error not actionable: %v", err)
	}
}

func TestDecodeFrameRejectsCorruptEnvelopes(t *testing.T) {
	data, nx, ny, nz := testBrick()
	c, _ := Lookup(SZ)
	f, err := c.Compress(data, nx, ny, nz, Options{ErrorBound: 0.01}, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := EncodeFrame(f)
	cases := map[string]func([]byte) []byte{
		"short":    func(b []byte) []byte { return b[:3] },
		"magic":    func(b []byte) []byte { b[0] = 'x'; return b },
		"version":  func(b []byte) []byte { b[4] = 99; return b },
		"zero-id":  func(b []byte) []byte { b[5] = 0; return b },
		"long-id":  func(b []byte) []byte { b[5] = 200; return b },
		"body-bit": func(b []byte) []byte { b[len(b)-3] ^= 0xFF; return b },
	}
	for name, corrupt := range cases {
		blob := append([]byte(nil), good...)
		if _, err := DecodeFrame(corrupt(blob)); err == nil {
			t.Errorf("%s corruption accepted", name)
		}
	}
}

// TestRegistryErrors pins down the registry contract: actionable lookup
// failures, duplicate and invalid registrations rejected.
func TestRegistryErrors(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(nil); err == nil {
		t.Error("nil codec registered")
	}
	if _, err := r.Lookup("sz"); !errors.Is(err, ErrUnknownCodec) {
		t.Errorf("empty registry lookup: %v", err)
	}
	if err := r.Register(szCodec{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(szCodec{}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := r.Register(longIDCodec{}); err == nil {
		t.Error("over-long codec ID accepted (frame envelope cannot encode it)")
	}
	if _, err := r.Lookup("zstd"); err == nil {
		t.Error("unknown id resolved")
	} else {
		if !strings.Contains(err.Error(), `"zstd"`) {
			t.Errorf("error lacks the unknown id: %v", err)
		}
		if !strings.Contains(err.Error(), "registered: sz") {
			t.Errorf("error lacks the registered set: %v", err)
		}
	}
}

// longIDCodec exists only to probe the registration ID-length bound.
type longIDCodec struct{ szCodec }

func (longIDCodec) ID() ID { return ID(strings.Repeat("x", maxIDLen+1)) }

// TestDefaultRegistryContents documents what ships registered.
func TestDefaultRegistryContents(t *testing.T) {
	ids := IDs()
	if len(ids) != 2 || ids[0] != SZ || ids[1] != ZFP {
		t.Errorf("default registry: %v", ids)
	}
}

// TestScratchReuse compresses many bricks through one scratch and checks
// results are identical to scratch-free compression.
func TestScratchReuse(t *testing.T) {
	data, nx, ny, nz := testBrick()
	c, _ := Lookup(SZ)
	var s Scratch
	for _, opt := range []Options{
		{ErrorBound: 0.01},
		{ErrorBound: 0.3, Predictor: MeanNeighbor},
		{ErrorBound: 0.001, Mode: PWREL},
	} {
		pooled, err := c.Compress(data, nx, ny, nz, opt, &s)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := c.Compress(data, nx, ny, nz, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, b := EncodeFrame(pooled), EncodeFrame(fresh)
		if string(a) != string(b) {
			t.Errorf("opt %+v: pooled stream differs from fresh stream", opt)
		}
	}
}
