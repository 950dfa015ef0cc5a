package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/nyx"
	"repro/internal/pipeline"
)

// testField generates a small Nyx-like baryon density field.
func testField(tb testing.TB, n int) *grid.Field3D {
	tb.Helper()
	snap, err := nyx.Generate(nyx.Params{N: n, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	f, err := snap.Field(nyx.FieldBaryonDensity)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func testDriver(tb testing.TB, engCfg core.Config) *pipeline.Driver {
	tb.Helper()
	if engCfg.PartitionDim == 0 {
		engCfg.PartitionDim = 8
	}
	drv, err := pipeline.New(engCfg, pipeline.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return drv
}

// testServer spins up a Server plus an httptest front end and tears both
// down with the test.
func testServer(tb testing.TB, engCfg core.Config, cal core.CalibrationOptions, cfg Config) (*Server, *httptest.Server) {
	tb.Helper()
	s, err := New(testDriver(tb, engCfg), cal, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(func() {
		// Service first: Close drains parked jobs so their handlers
		// return; ts.Close blocks until every outstanding request ends.
		_ = s.Close()
		ts.Close()
	})
	return s, ts
}

// errorCode returns the machine code of a typed error envelope, or "" when
// body is not one.
func errorCode(body []byte) string {
	var eb struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	_ = json.Unmarshal(body, &eb)
	return eb.Error.Code
}

func post(tb testing.TB, url string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	tb.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp, out
}

func TestWireRoundTrip(t *testing.T) {
	f := testField(t, 16)
	g, err := DecodeField(EncodeField(f), 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if !f.SameShape(g) {
		t.Fatalf("shape changed: %v vs %v", f, g)
	}
	for i := range f.Data {
		if f.Data[i] != g.Data[i] {
			t.Fatalf("cell %d: %g != %g", i, f.Data[i], g.Data[i])
		}
	}
}

func TestWireRejectsHostilePayloads(t *testing.T) {
	good := EncodeField(testField(t, 16))
	cases := map[string][]byte{
		"empty":          nil,
		"short header":   good[:8],
		"truncated body": good[:len(good)-4],
		"trailing bytes": append(append([]byte(nil), good...), 0),
		"zero dim":       append(make([]byte, 12), good[12:]...),
	}
	for name, data := range cases {
		if _, err := DecodeField(data, 1<<24); !errors.Is(err, apierr.ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
	if _, err := DecodeField(good, 16); !errors.Is(err, apierr.ErrBadConfig) {
		t.Errorf("over cell limit: err = %v, want ErrBadConfig", err)
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	_, ts := testServer(t, core.Config{}, core.CalibrationOptions{}, Config{})
	f := testField(t, 16)

	resp, archive := post(t, ts.URL+"/v1/compress/density", EncodeField(f), map[string]string{"X-Tenant": "t0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: HTTP %d: %s", resp.StatusCode, archive)
	}
	if got := resp.Header.Get("X-Rate-Level"); got != "0" {
		t.Errorf("X-Rate-Level = %q, want 0 (adaptation off)", got)
	}
	if br, err := strconv.ParseFloat(resp.Header.Get("X-Bit-Rate"), 64); err != nil || br <= 0 || br >= 32 {
		t.Errorf("X-Bit-Rate = %q, want a positive compressed rate", resp.Header.Get("X-Bit-Rate"))
	}
	if len(archive) >= 4*f.Len() {
		t.Errorf("archive %d bytes did not compress %d raw bytes", len(archive), 4*f.Len())
	}

	resp, raw := post(t, ts.URL+"/v1/decompress", archive, map[string]string{"X-Tenant": "t0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress: HTTP %d: %s", resp.StatusCode, raw)
	}
	g, err := DecodeField(raw, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if !f.SameShape(g) {
		t.Fatalf("round trip changed shape: %v vs %v", f, g)
	}
	var worst float64
	for i := range f.Data {
		if d := math.Abs(float64(f.Data[i]) - float64(g.Data[i])); d > worst {
			worst = d
		}
	}
	// The default budget is 0.1× the mean |value|; lossy, but errors must
	// stay within a small multiple of it (the optimizer's clamp box).
	if budget := 0.1 * f.Mean(); worst > 8*budget {
		t.Errorf("worst-case error %g vs budget %g", worst, budget)
	}
}

func TestTypedErrorResponses(t *testing.T) {
	_, ts := testServer(t, core.Config{}, core.CalibrationOptions{}, Config{MaxBodyBytes: 1 << 20})
	good := EncodeField(testField(t, 16))

	cases := []struct {
		name     string
		url      string
		body     []byte
		status   int
		code     string
		sentinel error
	}{
		{"garbage archive", ts.URL + "/v1/decompress", []byte("not an archive at all"), 422, "corrupt_archive", apierr.ErrCorruptArchive},
		{"bad field payload", ts.URL + "/v1/compress/x", []byte{1, 2, 3}, 400, "bad_config", apierr.ErrBadConfig},
		{"bad timeout", ts.URL + "/v1/compress/x?timeout=yesterday", good, 400, "bad_config", apierr.ErrBadConfig},
		{"deadline exceeded", ts.URL + "/v1/compress/x?timeout=1ns", good, 504, "deadline_exceeded", context.DeadlineExceeded},
		{"body too large", ts.URL + "/v1/compress/x", make([]byte, 2<<20), 413, "body_too_large", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, tc.url, tc.body, nil)
			if resp.StatusCode != tc.status {
				t.Fatalf("HTTP %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			code := errorCode(body)
			if code == "" {
				t.Fatalf("error body is not the typed envelope: %s", body)
			}
			if code != tc.code {
				t.Errorf("code %q, want %q", code, tc.code)
			}
			if tc.sentinel != nil {
				if err := apierr.ErrorFromResponse(resp.StatusCode, body); !errors.Is(err, tc.sentinel) {
					t.Errorf("ErrorFromResponse = %v, does not match %v", err, tc.sentinel)
				}
			}
		})
	}
}

func TestOverloadReturnsTyped429(t *testing.T) {
	// Token-starve the only tenant (burst below one job's cost) so every
	// admitted job parks in the queue, then overflow the queue.
	s, ts := testServer(t, core.Config{}, core.CalibrationOptions{}, Config{
		QueueDepth: 2,
		TokenRate:  1e-6,
		TokenBurst: 1,
	})
	payload := EncodeField(testField(t, 16))

	const clients = 6
	type outcome struct {
		status int
		code   string
		retry  string
	}
	results := make(chan outcome, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/compress/f", payload, nil)
			results <- outcome{resp.StatusCode, errorCode(body), resp.Header.Get("Retry-After")}
		}()
	}

	// Give the slow clients time to fill the queue, then shut down: the
	// two parked jobs must be failed, not leaked.
	time.Sleep(200 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(results)

	var rejected int
	for r := range results {
		switch r.status {
		case http.StatusTooManyRequests:
			rejected++
			if r.code != "overloaded" {
				t.Errorf("429 code %q, want overloaded", r.code)
			}
			if r.retry == "" {
				t.Error("429 without Retry-After")
			}
		case http.StatusOK:
			t.Error("a token-starved request completed")
		default:
			// Parked jobs drained at shutdown: also the typed overload.
			if r.code != "overloaded" {
				t.Errorf("HTTP %d code %q, want overloaded", r.status, r.code)
			}
		}
	}
	if rejected < clients-2 {
		t.Errorf("%d rejects for %d clients over a depth-2 queue", rejected, clients)
	}
	if st := s.Stats(); st.Rejected == 0 {
		t.Error("stats counted no rejections")
	}
}

// drrServer builds a server without running workers, so nextJob can be
// stepped by hand under a fake clock.
func drrServer(t *testing.T, clk *fakeClock, cfg Config) *Server {
	t.Helper()
	s, err := newServer(testDriver(t, core.Config{}), core.CalibrationOptions{}, cfg, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func enqueue(t *testing.T, s *Server, tenant string, cost int64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		j := &job{
			kind: jobCompress, tenant: tenant, field: fmt.Sprintf("f%d", i),
			cost: cost, ctx: context.Background(), queued: s.now(),
			done: make(chan jobResult, 1),
		}
		if err := s.admit(j); err != nil {
			t.Fatal(err)
		}
	}
}

// picks makes n DRR picks and counts the jobs each tenant got; a pick
// that finds nothing eligible counts under "".
func picks(t *testing.T, s *Server, n int) map[string]int {
	t.Helper()
	m := make(map[string]int)
	for range n {
		j, _, ok := s.nextJob()
		if !ok {
			t.Fatal("server closed")
		}
		if j == nil {
			m[""]++
			continue
		}
		m[j.tenant]++
	}
	return m
}

func TestDeficitRoundRobinIsFair(t *testing.T) {
	clk := newFakeClock()
	s := drrServer(t, clk, Config{QueueDepth: 64, Quantum: 512})

	// A hog with a deep backlog and a mouse with two requests, equal cost:
	// the mouse must be served alongside the hog, not behind its backlog.
	enqueue(t, s, "hog", 512, 10)
	enqueue(t, s, "mouse", 512, 2)

	if got := picks(t, s, 2); got["hog"] != 1 || got["mouse"] != 1 {
		t.Fatalf("first two picks %v: both tenants must progress", got)
	}
	if got := picks(t, s, 2); got["hog"] != 1 || got["mouse"] != 1 {
		t.Fatalf("next two picks %v: mouse's last job still waiting behind the hog", got)
	}
}

func TestDeficitRoundRobinSharesCellsNotRequests(t *testing.T) {
	clk := newFakeClock()
	// Quantum = one big job. The small-field tenant gets the same cells
	// per round as the big-field tenant — i.e. many of its jobs per round,
	// not one-for-one with the big jobs.
	s := drrServer(t, clk, Config{QueueDepth: 64, Quantum: 4096})
	enqueue(t, s, "big", 4096, 4)
	enqueue(t, s, "small", 256, 32)

	got := picks(t, s, 1+4096/256)
	if got["big"] != 1 {
		t.Fatalf("big tenant got %d jobs of quantum-size cost, want 1", got["big"])
	}
	if got["small"] != 4096/256 {
		t.Fatalf("small tenant got %d jobs, want %d (equal cells)", got["small"], 4096/256)
	}
}

func TestTokenBucketMetersTenants(t *testing.T) {
	clk := newFakeClock()
	s := drrServer(t, clk, Config{
		QueueDepth: 64, Quantum: 1 << 20,
		TokenRate: 512, TokenBurst: 512,
	})
	enqueue(t, s, "metered", 512, 3)

	if got := picks(t, s, 2); got["metered"] != 1 || got[""] != 1 {
		t.Fatalf("burst allows exactly one job, got %v", got)
	}
	clk.advance(time.Second) // refills one job's worth
	if got := picks(t, s, 1); got["metered"] != 1 {
		t.Fatal("refill did not release the next job")
	}
}

func TestQueuedJobDroppedOnCancel(t *testing.T) {
	clk := newFakeClock()
	s := drrServer(t, clk, Config{QueueDepth: 64, Quantum: 1 << 20})
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		kind: jobCompress, tenant: "t", field: "f", cost: 64,
		ctx: ctx, queued: s.now(), done: make(chan jobResult, 1),
	}
	if err := s.admit(j); err != nil {
		t.Fatal(err)
	}
	cancel()
	if got, _, _ := s.nextJob(); got != nil {
		t.Fatalf("canceled job was dispatched")
	}
	select {
	case res := <-j.done:
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("dropped job err = %v", res.err)
		}
	default:
		t.Fatal("dropped job never answered")
	}
	if n := s.Stats().Queued; n != 0 {
		t.Fatalf("queue depth %d after drop", n)
	}
}

func TestCalibrateEndpointReportsDowngrade(t *testing.T) {
	// PWREL engine + a ModelScan request: the scan models ABS errors only,
	// so the service must calibrate by probe ladder AND say so.
	_, ts := testServer(t,
		core.Config{Mode: codec.PWREL},
		core.CalibrationOptions{Mode: core.ModelScan, EBs: []float64{1e-3, 3e-3, 1e-2, 3e-2, 0.1}},
		Config{})

	resp, body := post(t, ts.URL+"/v1/calibrate/density", EncodeField(testField(t, 16)), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("calibrate: HTTP %d: %s", resp.StatusCode, body)
	}
	var view calibrationView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Mode != "probe-ladder" {
		t.Errorf("mode %q, want probe-ladder", view.Mode)
	}
	if !view.Downgraded || view.DowngradeReason == "" {
		t.Errorf("downgrade not disclosed: %+v", view)
	}
	if view.Samples == 0 || len(view.EBs) == 0 {
		t.Errorf("calibration detail missing: %+v", view)
	}
}

func TestLoadAdaptationStepsRateUnderPressure(t *testing.T) {
	// An unmeetable SLO: every completed request counts as pressure, so
	// the controller must walk the level up; the response headers and
	// stats must both show it.
	s, ts := testServer(t, core.Config{}, core.CalibrationOptions{}, Config{
		Adapt: AdaptConfig{
			Enabled:    true,
			MaxLevel:   2,
			EBStep:     4,
			LatencySLO: time.Nanosecond,
			HighQueue:  1 << 30, // latency-driven only
			Holdoff:    time.Nanosecond,
		},
	})
	payload := EncodeField(testField(t, 16))

	var sawStepped bool
	var baseline, stepped int
	for i := 0; i < 3*minAdaptSamples; i++ {
		resp, body := post(t, ts.URL+"/v1/compress/density", payload, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
		}
		level, err := strconv.Atoi(resp.Header.Get("X-Rate-Level"))
		if err != nil {
			t.Fatalf("bad X-Rate-Level %q", resp.Header.Get("X-Rate-Level"))
		}
		switch level {
		case 0:
			baseline = len(body)
		default:
			sawStepped = true
			stepped = len(body)
		}
	}
	if !sawStepped {
		t.Fatal("controller never stepped the rate under sustained SLO breach")
	}
	if st := s.Stats(); st.StepUps == 0 || st.Level == 0 {
		t.Errorf("stats do not show the stepping: %+v", st)
	}
	if baseline > 0 && stepped > 0 && stepped >= baseline {
		t.Errorf("stepped-level archive (%dB) not smaller than full quality (%dB)", stepped, baseline)
	}
}

func TestConcurrentCompressAndCancel(t *testing.T) {
	// The -race soak: many tenants compressing concurrently, a slice of
	// them abandoning mid-flight, while stats polls — every request must
	// get exactly one well-formed answer and shutdown must be clean.
	s, ts := testServer(t, core.Config{}, core.CalibrationOptions{}, Config{
		QueueDepth: 128, MaxInflight: 2,
	})
	payload := EncodeField(testField(t, 16))

	const workers = 16
	const perWorker = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", w%5)
			for i := 0; i < perWorker; i++ {
				url := fmt.Sprintf("%s/v1/compress/f%d", ts.URL, i)
				if w%4 == 0 {
					url += "?timeout=1ms" // abandons mid-queue or mid-flight
				}
				resp, body := post(t, url, payload, map[string]string{"X-Tenant": tenant})
				switch resp.StatusCode {
				case http.StatusOK:
					if _, err := core.ParseCompressedField(body); err != nil {
						errs <- fmt.Errorf("200 with unparseable archive: %w", err)
					}
				case http.StatusGatewayTimeout, http.StatusTooManyRequests, 499: // 499: client closed request
					if errorCode(body) == "" {
						errs <- fmt.Errorf("HTTP %d without typed body: %s", resp.StatusCode, body)
					}
				default:
					errs <- fmt.Errorf("unexpected HTTP %d: %s", resp.StatusCode, body)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = s.Stats()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(done)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Served == 0 {
		t.Error("soak served nothing")
	}
	if st.Queued != 0 {
		t.Errorf("%d jobs leaked in queues after close", st.Queued)
	}
}

func TestH2CSmoke(t *testing.T) {
	drv := testDriver(t, core.Config{})
	s, err := New(drv, core.CalibrationOptions{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer(ln.Addr().String(), s.Handler())
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	client := &http.Client{Transport: NewH2CTransport()}
	f := testField(t, 16)
	req, _ := http.NewRequest(http.MethodPost, "http://"+ln.Addr().String()+"/v1/compress/density",
		bytes.NewReader(EncodeField(f)))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ProtoMajor != 2 {
		t.Fatalf("served over %s, want HTTP/2 (h2c)", resp.Proto)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d over h2c", resp.StatusCode)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := testServer(t, core.Config{}, core.CalibrationOptions{}, Config{})
	post(t, ts.URL+"/v1/compress/density", EncodeField(testField(t, 16)), nil)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Served != 1 || st.Accepted != 1 || st.Tenants != 1 || st.BudgetScale != 1 {
		t.Errorf("stats after one request: %+v", st)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
}

func TestConfigValidation(t *testing.T) {
	drv := testDriver(t, core.Config{})
	if _, err := New(nil, core.CalibrationOptions{}, Config{}); !errors.Is(err, apierr.ErrBadConfig) {
		t.Errorf("nil driver: %v", err)
	}
	if _, err := New(drv, core.CalibrationOptions{}, Config{QueueDepth: -1}); !errors.Is(err, apierr.ErrBadConfig) {
		t.Errorf("negative QueueDepth: %v", err)
	}
	if _, err := New(drv, core.CalibrationOptions{}, Config{TokenRate: -3}); !errors.Is(err, apierr.ErrBadConfig) {
		t.Errorf("negative TokenRate: %v", err)
	}
	// NaN compares false with everything, so a check written as "x < 0"
	// lets it through: each of these would silently switch a guard off.
	nan := math.NaN()
	for name, cfg := range map[string]Config{
		"NaN TokenRate":     {TokenRate: nan},
		"NaN TokenBurst":    {TokenBurst: nan},
		"NaN quality floor": {QualityFloors: map[string]float64{"t": nan}},
		"NaN EBStep":        {Adapt: AdaptConfig{EBStep: nan}},
		"+Inf EBStep":       {Adapt: AdaptConfig{EBStep: math.Inf(1)}},
	} {
		if _, err := New(drv, core.CalibrationOptions{}, cfg); !errors.Is(err, apierr.ErrBadConfig) {
			t.Errorf("%s: %v, want ErrBadConfig", name, err)
		}
	}
}
