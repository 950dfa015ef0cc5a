package archiveserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/zfp"
)

// testField builds a smooth 16³ field with a per-step phase shift so each
// step archives to distinct bytes.
func testField(n, step int) *grid.Field3D {
	f := grid.NewField3D(n, n, n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				f.Data[(z*n+y)*n+x] = float32(math.Sin(float64(x+step)*0.31)*
					math.Cos(float64(y)*0.17) + 0.05*float64(z))
			}
		}
	}
	return f
}

// writeTestStream archives steps of a zfp field "rho" and an sz field
// "temp" into dir/name.acs (+ sidecar) and returns the stream path.
func writeTestStream(t *testing.T, dir, name string, steps int, rate float64) string {
	t.Helper()
	path := filepath.Join(dir, name+StreamSuffix)
	w, err := NewWriter(path, WriterOptions{Rate: rate, PartitionDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		err := w.WriteStep(map[string]FieldSpec{
			"rho":  {Field: testField(16, s)},
			"temp": {Field: testField(16, s+100), Codec: codec.SZ, ErrorBound: 1e-3},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if w.Steps() != steps {
		t.Fatalf("writer Steps() = %d, want %d", w.Steps(), steps)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func newTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func get(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// localSplice reproduces the serving path with library calls only: parse
// the stored step, truncate every partition, reserialize. The acceptance
// gate is that served bytes equal this exactly.
func localSplice(t *testing.T, streamPath string, step int, field string, rate float64) []byte {
	t.Helper()
	f, err := os.Open(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, _ := f.Stat()
	sr, err := core.OpenStream(f, fi.Size())
	if err != nil {
		t.Fatal(err)
	}
	fields, err := sr.ReadStep(step)
	if err != nil {
		t.Fatal(err)
	}
	cf := fields[field]
	if cf == nil {
		t.Fatalf("field %q missing from step %d", field, step)
	}
	out := &core.CompressedField{
		Nx: cf.Nx, Ny: cf.Ny, Nz: cf.Nz,
		PartitionDim: cf.PartitionDim,
		Codec:        codec.ZFP,
	}
	var s zfp.Scratch
	for _, part := range cf.Parts {
		c, err := zfp.Parse(part.AppendBytes(nil))
		if err != nil {
			t.Fatal(err)
		}
		ix, err := zfp.Reindex(c)
		if err != nil {
			t.Fatal(err)
		}
		tc, err := ix.TruncateToRate(rate, &s)
		if err != nil {
			t.Fatal(err)
		}
		out.Parts = append(out.Parts, codec.WrapZFP(tc))
	}
	return out.Bytes()
}

// TestWriterDefaultPartitionIsTwoBricksPerAxis: the zero PartitionDim means
// two bricks per axis, resolved per field — eight bricks whatever the field
// size — and the stream such a writer produces is served like any other.
func TestWriterDefaultPartitionIsTwoBricksPerAxis(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dflt"+StreamSuffix)
	w, err := NewWriter(path, WriterOptions{Rate: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteStep(map[string]FieldSpec{
		"big":   {Field: testField(32, 0)},
		"small": {Field: testField(16, 1)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, _ := f.Stat()
	sr, err := core.OpenStream(f, fi.Size())
	if err != nil {
		t.Fatal(err)
	}
	fields, err := sr.ReadStep(0)
	if err != nil {
		t.Fatal(err)
	}
	for name, edge := range map[string]int{"big": 16, "small": 8} {
		if cf := fields[name]; len(cf.Parts) != 8 || cf.PartitionDim != edge {
			t.Errorf("%s: %d bricks of edge %d, want 8 of edge %d", name, len(cf.Parts), cf.PartitionDim, edge)
		}
	}
	_, ts := newTestServer(t, dir)
	resp, body := get(t, ts.URL+"/v1/archive/dflt/0/big?rate=4", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch from a default-partitioned stream: %s", resp.Status)
	}
	if want := localSplice(t, path, 0, "big", 4); !bytes.Equal(body, want) {
		t.Error("served rate-4 rung differs from the local splice")
	}

	if _, err := NewWriter(filepath.Join(dir, "neg"+StreamSuffix), WriterOptions{PartitionDim: -1}); !errors.Is(err, apierr.ErrBadConfig) {
		t.Errorf("negative partition dim: err = %v, want ErrBadConfig", err)
	}
	// A one-cell axis cannot be halved: typed rejection, not a division by zero.
	w, err = NewWriter(filepath.Join(dir, "thin"+StreamSuffix), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.WriteStep(map[string]FieldSpec{"thin": {Field: grid.NewField3D(1, 4, 4)}}); !errors.Is(err, apierr.ErrBadConfig) {
		t.Errorf("1-cell axis under the default: err = %v, want ErrBadConfig", err)
	}
}

func TestServedRateIsByteIdenticalToLocalSplice(t *testing.T) {
	dir := t.TempDir()
	path := writeTestStream(t, dir, "run1", 3, 16)
	_, ts := newTestServer(t, dir)

	for _, rate := range []float64{0.5, 2, 4, 8} {
		for step := 0; step < 3; step++ {
			resp, body := get(t, fmt.Sprintf("%s/v1/archive/run1/%d/rho?rate=%g", ts.URL, step, rate), nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("rate %g step %d: status %d (%s)", rate, step, resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Served-Rate"); got != fmt.Sprintf("%g", rate) {
				t.Fatalf("rate %g: X-Served-Rate %q", rate, got)
			}
			want := localSplice(t, path, step, "rho", rate)
			if !bytes.Equal(body, want) {
				t.Fatalf("rate %g step %d: served %d bytes != local splice %d bytes", rate, step, len(body), len(want))
			}
			// SpliceArchive over the stored full bytes is the same splice.
			_, stored := get(t, fmt.Sprintf("%s/v1/archive/run1/%d/rho", ts.URL, step), nil)
			spliced, err := SpliceArchive(stored, rate)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, spliced) {
				t.Fatalf("rate %g step %d: served differs from SpliceArchive(stored)", rate, step)
			}
			// The splice must round-trip through the normal archive parser.
			if _, err := core.ParseCompressedField(body); err != nil {
				t.Fatalf("rate %g: served splice does not parse: %v", rate, err)
			}
		}
	}
}

func TestFullFetchServesStoredBytes(t *testing.T) {
	dir := t.TempDir()
	path := writeTestStream(t, dir, "run1", 2, 12)
	_, ts := newTestServer(t, dir)

	resp, body := get(t, ts.URL+"/v1/archive/run1/1/rho", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, _ := f.Stat()
	sr, err := core.OpenStream(f, fi.Size())
	if err != nil {
		t.Fatal(err)
	}
	fields, err := sr.ReadStep(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := fields["rho"].Bytes(); !bytes.Equal(body, want) {
		t.Fatalf("full fetch differs from stored archive (%d vs %d bytes)", len(body), len(want))
	}
	// A rate at or above the stored rate negotiates down to the same bytes.
	resp2, body2 := get(t, ts.URL+"/v1/archive/run1/1/rho?rate=32", nil)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body2, body) {
		t.Fatalf("rate above stored must serve stored bytes (status %d, %d vs %d bytes)",
			resp2.StatusCode, len(body2), len(body))
	}
	if got := resp2.Header.Get("X-Served-Rate"); got != "12" {
		t.Fatalf("negotiated X-Served-Rate %q, want 12", got)
	}
}

func TestCacheHotFetchDoesZeroSpliceWork(t *testing.T) {
	dir := t.TempDir()
	writeTestStream(t, dir, "run1", 1, 16)
	srv, ts := newTestServer(t, dir)

	url := ts.URL + "/v1/archive/run1/0/rho?rate=4"
	resp1, body1 := get(t, url, nil)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first fetch: status %d cache %q", resp1.StatusCode, resp1.Header.Get("X-Cache"))
	}
	st := srv.Stats()
	if st.Splices != 1 {
		t.Fatalf("after first fetch: %d splices, want 1", st.Splices)
	}
	resp2, body2 := get(t, url, nil)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("second fetch: status %d cache %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cache hit served different bytes")
	}
	st = srv.Stats()
	if st.Splices != 1 {
		t.Fatalf("cache-hot fetch did splice work: %d splices", st.Splices)
	}
	if st.Cache.Hits != 1 {
		t.Fatalf("cache hits %d, want 1", st.Cache.Hits)
	}
	if st.Tiers[TierBrowse].CacheHits != 1 || st.Tiers[TierBrowse].Requests != 2 {
		t.Fatalf("browse tier %+v, want 2 requests / 1 hit", st.Tiers[TierBrowse])
	}
}

func TestConditionalRefetchIs304(t *testing.T) {
	dir := t.TempDir()
	writeTestStream(t, dir, "run1", 1, 16)
	srv, ts := newTestServer(t, dir)

	url := ts.URL + "/v1/archive/run1/0/rho?rate=4"
	resp1, _ := get(t, url, nil)
	etag := resp1.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on 200")
	}
	resp2, body2 := get(t, url, map[string]string{"If-None-Match": etag})
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional refetch: status %d, want 304", resp2.StatusCode)
	}
	if len(body2) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body2))
	}
	if got := resp2.Header.Get("ETag"); got != etag {
		t.Fatalf("304 ETag %q != %q", got, etag)
	}
	// A weak-form or multi-candidate header still matches.
	resp3, _ := get(t, url, map[string]string{"If-None-Match": `"nope", W/` + etag})
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("weak/multi If-None-Match: status %d, want 304", resp3.StatusCode)
	}
	// Different variants get different ETags.
	resp4, _ := get(t, ts.URL+"/v1/archive/run1/0/rho?rate=2", map[string]string{"If-None-Match": etag})
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("other rate with stale ETag: status %d, want 200", resp4.StatusCode)
	}
	if srv.Stats().Tiers[TierBrowse].NotModified != 2 {
		t.Fatalf("not_modified %d, want 2", srv.Stats().Tiers[TierBrowse].NotModified)
	}
}

func TestRangeRequests(t *testing.T) {
	dir := t.TempDir()
	writeTestStream(t, dir, "run1", 1, 16)
	_, ts := newTestServer(t, dir)

	url := ts.URL + "/v1/archive/run1/0/rho?rate=4"
	_, full := get(t, url, nil)
	size := len(full)

	resp, body := get(t, url, map[string]string{"Range": "bytes=0-99"})
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range: status %d, want 206", resp.StatusCode)
	}
	if want := fmt.Sprintf("bytes 0-99/%d", size); resp.Header.Get("Content-Range") != want {
		t.Fatalf("Content-Range %q, want %q", resp.Header.Get("Content-Range"), want)
	}
	if !bytes.Equal(body, full[:100]) {
		t.Fatal("range bytes differ from prefix")
	}
	resp, body = get(t, url, map[string]string{"Range": "bytes=-37"})
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, full[size-37:]) {
		t.Fatalf("suffix range: status %d len %d", resp.StatusCode, len(body))
	}
	resp, body = get(t, url, map[string]string{"Range": fmt.Sprintf("bytes=%d-", size/2)})
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, full[size/2:]) {
		t.Fatalf("open range: status %d len %d", resp.StatusCode, len(body))
	}
	// Malformed ranges are ignored: full 200.
	resp, body = get(t, url, map[string]string{"Range": "bytes=5-2"})
	if resp.StatusCode != http.StatusOK || len(body) != size {
		t.Fatalf("inverted range: status %d len %d, want full 200", resp.StatusCode, len(body))
	}
	// Unsatisfiable ranges are 416 with the size advertised.
	resp, _ = get(t, url, map[string]string{"Range": fmt.Sprintf("bytes=%d-", size+10)})
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("unsatisfiable range: status %d, want 416", resp.StatusCode)
	}
	if want := fmt.Sprintf("bytes */%d", size); resp.Header.Get("Content-Range") != want {
		t.Fatalf("416 Content-Range %q, want %q", resp.Header.Get("Content-Range"), want)
	}
}

func TestManifestRungSizesAreExact(t *testing.T) {
	dir := t.TempDir()
	writeTestStream(t, dir, "run1", 2, 16)
	_, ts := newTestServer(t, dir)

	resp, body := get(t, ts.URL+"/v1/archive/run1/manifest", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest: status %d (%s)", resp.StatusCode, body)
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Steps != 2 || len(m.Fields) != 2 {
		t.Fatalf("manifest %d steps / %d fields, want 2/2", m.Steps, len(m.Fields))
	}
	var rho, temp *FieldManifest
	for i := range m.Fields {
		switch m.Fields[i].Name {
		case "rho":
			rho = &m.Fields[i]
		case "temp":
			temp = &m.Fields[i]
		}
	}
	if rho == nil || temp == nil {
		t.Fatalf("manifest fields %+v", m.Fields)
	}
	if !rho.Progressive || rho.MaxRate != 16 || rho.Codec != string(codec.ZFP) {
		t.Fatalf("rho manifest %+v", rho)
	}
	if temp.Codec != string(codec.SZ) || temp.Progressive || len(temp.Rungs) != 0 {
		t.Fatalf("temp manifest %+v", temp)
	}
	// Every advertised rung size must equal the actual spliced body length.
	if len(rho.Rungs) == 0 {
		t.Fatal("rho has no rungs")
	}
	for _, rung := range rho.Rungs {
		if rung.Rate >= 16 {
			t.Fatalf("rung %g at or above stored rate", rung.Rate)
		}
		_, body := get(t, fmt.Sprintf("%s/v1/archive/run1/0/rho?rate=%g", ts.URL, rung.Rate), nil)
		if int64(len(body)) != rung.Bytes {
			t.Fatalf("rung %g predicted %d bytes, served %d", rung.Rate, rung.Bytes, len(body))
		}
	}
	// Conditional manifest refetch revalidates.
	resp2, _ := get(t, ts.URL+"/v1/archive/run1/manifest", map[string]string{"If-None-Match": resp.Header.Get("ETag")})
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("manifest If-None-Match: status %d", resp2.StatusCode)
	}
}

// TestSZFieldServedAsStored: an sz field is served as its stored bytes,
// and a request for a representation the server does not make (the
// retired ?preview rung, or any key but rate) is refused with bad_config
// instead of answered with those bytes.
func TestSZFieldServedAsStored(t *testing.T) {
	dir := t.TempDir()
	path := writeTestStream(t, dir, "run1", 1, 16)
	_, ts := newTestServer(t, dir)

	resp, body := get(t, ts.URL+"/v1/archive/run1/0/temp", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sz field: status %d (%s)", resp.StatusCode, body)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, _ := f.Stat()
	sr, err := core.OpenStream(f, fi.Size())
	if err != nil {
		t.Fatal(err)
	}
	fields, err := sr.ReadStep(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := fields["temp"].Bytes(); !bytes.Equal(body, want) {
		t.Fatalf("served %d bytes, stored field is %d", len(body), len(want))
	}

	for _, url := range []string{
		"/v1/archive/run1/0/temp?preview=2",
		"/v1/archive/run1/0/rho?preview=2",
		"/v1/archive/run1/0/rho?rate=4&preview=2",
		"/v1/archive/run1/0/rho?Rate=4",
	} {
		resp, body := get(t, ts.URL+url, nil)
		var eb struct {
			Error struct{ Code string } `json:"error"`
		}
		_ = json.Unmarshal(body, &eb)
		if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_config" {
			t.Errorf("%s: status %d code %q, want 400 bad_config (%s)", url, resp.StatusCode, eb.Error.Code, body)
		}
	}
}

func TestErrorMapping(t *testing.T) {
	dir := t.TempDir()
	writeTestStream(t, dir, "run1", 1, 16)
	_, ts := newTestServer(t, dir)

	cases := []struct {
		name, url string
		status    int
	}{
		{"unknown stream", "/v1/archive/nope/manifest", http.StatusNotFound},
		{"traversal stream name", "/v1/archive/..%2Frun1/manifest", http.StatusNotFound},
		{"unknown step", "/v1/archive/run1/7/rho", http.StatusNotFound},
		{"unknown field", "/v1/archive/run1/0/nope", http.StatusNotFound},
		{"non-integer step", "/v1/archive/run1/x/rho", http.StatusBadRequest},
		{"bad rate", "/v1/archive/run1/0/rho?rate=NaN", http.StatusBadRequest},
		{"negative rate", "/v1/archive/run1/0/rho?rate=-3", http.StatusBadRequest},
		{"rate on sz field", "/v1/archive/run1/0/temp?rate=4", http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := get(t, ts.URL+tc.url, nil)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
	}
}

func TestSidecarRebuildWhenMissingOrStale(t *testing.T) {
	dir := t.TempDir()
	path := writeTestStream(t, dir, "run1", 2, 16)

	// Splice once with the writer's sidecar to get the reference bytes.
	srv1, ts1 := newTestServer(t, dir)
	_, want := get(t, ts1.URL+"/v1/archive/run1/0/rho?rate=4", nil)
	if srv1.Stats().SidecarRebuilds != 0 {
		t.Fatalf("fresh sidecar was rebuilt")
	}
	ts1.Close()
	srv1.Close()

	// Delete the sidecar: the server must rebuild by scanning and still
	// serve identical bytes (and persist the rebuilt sidecar).
	if err := os.Remove(path + SidecarSuffix); err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newTestServer(t, dir)
	_, got := get(t, ts2.URL+"/v1/archive/run1/0/rho?rate=4", nil)
	if !bytes.Equal(got, want) {
		t.Fatal("rebuilt sidecar produced different splice bytes")
	}
	if srv2.Stats().SidecarRebuilds != 1 {
		t.Fatalf("rebuilds %d, want 1", srv2.Stats().SidecarRebuilds)
	}
	if _, err := os.Stat(path + SidecarSuffix); err != nil {
		t.Fatalf("rebuilt sidecar not persisted: %v", err)
	}

	// Corrupt the sidecar binding: flip a byte inside the tables. The
	// trailer CRC fails, so the server falls back to a rebuild.
	data, err := os.ReadFile(path + SidecarSuffix)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0xff
	if err := os.WriteFile(path+SidecarSuffix, data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv3, ts3 := newTestServer(t, dir)
	_, got3 := get(t, ts3.URL+"/v1/archive/run1/0/rho?rate=4", nil)
	if !bytes.Equal(got3, want) {
		t.Fatal("corrupt-sidecar recovery produced different splice bytes")
	}
	if srv3.Stats().SidecarRebuilds != 1 {
		t.Fatalf("rebuilds %d, want 1", srv3.Stats().SidecarRebuilds)
	}
}

func TestSidecarRoundTrip(t *testing.T) {
	sc := &sidecar{
		footerCRC: 0xdeadbeef,
		steps: [][]fieldIndex{
			{
				{name: "a", starts: [][]int{{0, 13, 40, 96}, nil}},
				{name: "bb", starts: [][]int{{0, 7}}},
			},
			{
				{name: "a", starts: [][]int{nil, nil}},
			},
		},
	}
	data := encodeSidecar(sc)
	got, err := parseSidecar(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.footerCRC != sc.footerCRC || len(got.steps) != 2 {
		t.Fatalf("round trip header: %+v", got)
	}
	fi := got.field(0, "a")
	if fi == nil || len(fi.starts) != 2 || len(fi.starts[0]) != 4 || fi.starts[0][2] != 40 {
		t.Fatalf("round trip tables: %+v", fi)
	}
	if got.field(1, "bb") != nil {
		t.Fatal("field lookup leaked across steps")
	}
	// Any bit flip must be rejected by the trailer CRC.
	for _, i := range []int{0, 8, 15, len(data) / 2, len(data) - 1} {
		bad := bytes.Clone(data)
		bad[i] ^= 0x01
		if _, err := parseSidecar(bad); !errors.Is(err, apierr.ErrCorruptArchive) {
			t.Fatalf("flip at %d: err %v, want ErrCorruptArchive", i, err)
		}
	}
	// Truncations too.
	for _, n := range []int{0, 4, 19, len(data) - 1} {
		if _, err := parseSidecar(data[:n]); !errors.Is(err, apierr.ErrCorruptArchive) {
			t.Fatalf("truncate to %d: err %v, want ErrCorruptArchive", n, err)
		}
	}
}

func TestCacheEvictionAndSingleflight(t *testing.T) {
	c := newBlockCache(100)
	builds := 0
	body, hit, err := c.getOrBuild("a", func() ([]byte, error) { builds++; return make([]byte, 60), nil })
	if err != nil || hit || len(body) != 60 || builds != 1 {
		t.Fatalf("first build: hit=%v len=%d builds=%d err=%v", hit, len(body), builds, err)
	}
	if _, hit, _ := c.getOrBuild("a", nil); !hit {
		t.Fatal("second get missed")
	}
	// Inserting 60 more evicts "a" (LRU) to fit the budget.
	c.getOrBuild("b", func() ([]byte, error) { return make([]byte, 60), nil })
	st := c.stats()
	if st.Evictions != 1 || st.Bytes != 60 || st.Entries != 1 {
		t.Fatalf("eviction stats %+v", st)
	}
	// Oversized entries are served but never cached.
	c.getOrBuild("huge", func() ([]byte, error) { return make([]byte, 200), nil })
	if st := c.stats(); st.Entries != 1 || st.Bytes != 60 {
		t.Fatalf("oversized entry was cached: %+v", st)
	}
	// Errors are not cached either.
	if _, _, err := c.getOrBuild("err", func() ([]byte, error) { return nil, errors.New("boom") }); err == nil {
		t.Fatal("error swallowed")
	}
	if _, hit, err := c.getOrBuild("err", func() ([]byte, error) { return []byte("ok"), nil }); hit || err != nil {
		t.Fatalf("error was cached: hit=%v err=%v", hit, err)
	}

	// Concurrent misses on one key merge into one build.
	c2 := newBlockCache(1 << 20)
	var mu sync.Mutex
	started := make(chan struct{})
	release := make(chan struct{})
	buildCount := 0
	build := func() ([]byte, error) {
		mu.Lock()
		buildCount++
		mu.Unlock()
		close(started)
		<-release
		return []byte("shared"), nil
	}
	var wg sync.WaitGroup
	go c2.getOrBuild("k", build)
	<-started
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _, err := c2.getOrBuild("k", func() ([]byte, error) {
				mu.Lock()
				buildCount++
				mu.Unlock()
				return []byte("shared"), nil
			})
			if err != nil || string(body) != "shared" {
				t.Errorf("merged get: %q %v", body, err)
			}
		}()
	}
	// The leader is parked on release, so every follower must join its
	// flight; release it only once all eight have merged.
	for {
		c2.mu.Lock()
		merged := c2.merged
		c2.mu.Unlock()
		if merged == 8 {
			break
		}
	}
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if buildCount != 1 {
		t.Fatalf("%d builds for one key under contention, want 1", buildCount)
	}
	if st := c2.stats(); st.SingleflightMerged == 0 {
		t.Fatalf("no merged flights recorded: %+v", st)
	}
}

func TestListStreams(t *testing.T) {
	dir := t.TempDir()
	writeTestStream(t, dir, "bravo", 1, 8)
	writeTestStream(t, dir, "alpha", 1, 8)
	// Non-stream files are ignored.
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644)
	_, ts := newTestServer(t, dir)

	_, body := get(t, ts.URL+"/v1/archive", nil)
	var got struct {
		Streams []string `json:"streams"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Streams) != 2 || got.Streams[0] != "alpha" || got.Streams[1] != "bravo" {
		t.Fatalf("streams %v", got.Streams)
	}
}

func TestHeadRequest(t *testing.T) {
	dir := t.TempDir()
	writeTestStream(t, dir, "run1", 1, 16)
	_, ts := newTestServer(t, dir)

	url := ts.URL + "/v1/archive/run1/0/rho?rate=4"
	_, full := get(t, url, nil)
	req, _ := http.NewRequest(http.MethodHead, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(len(full)) {
		t.Fatalf("HEAD Content-Length %q, want %d", got, len(full))
	}
	if resp.Header.Get("ETag") == "" {
		t.Fatal("HEAD lost the ETag")
	}
}

// TestStatsEndpoint exercises /v1/stats over the wire (the other tests
// read Server.Stats directly) and the step-count accessors.
func TestStatsEndpoint(t *testing.T) {
	dir := t.TempDir()
	writeTestStream(t, dir, "snap", 2, 16)
	srv, ts := newTestServer(t, dir)

	resp, _ := get(t, ts.URL+"/v1/archive/snap/0/rho?rate=2", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup fetch: %d", resp.StatusCode)
	}
	resp, body := get(t, ts.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Splices != 1 || st.Tiers[TierBrowse].Requests != 1 {
		t.Fatalf("stats after one rate-2 fetch: %+v", st)
	}

	str, err := srv.store.Stream("snap")
	if err != nil {
		t.Fatal(err)
	}
	if str.Steps() != 2 {
		t.Fatalf("stream Steps() = %d, want 2", str.Steps())
	}
}
