package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/core"
)

// --- chaos codec: detonates on a trigger cell value ----------------------

const chaosTrigger = float32(-1.2345678e18)

var errChaos = errors.New("chaos: injected codec panic")

type chaosCodec struct {
	id    codec.ID
	inner codec.Codec
}

func (c chaosCodec) ID() codec.ID { return c.id }

func (c chaosCodec) Compress(data []float32, nx, ny, nz int, opt codec.Options, s *codec.Scratch) (codec.Frame, error) {
	for _, v := range data {
		if v == chaosTrigger {
			panic(errChaos)
		}
	}
	return c.inner.Compress(data, nx, ny, nz, opt, s)
}

func (c chaosCodec) Parse(body []byte) (codec.Frame, error) { return c.inner.Parse(body) }

var chaosOnce sync.Once

func registerChaos(t *testing.T) codec.ID {
	t.Helper()
	chaosOnce.Do(func() {
		inner, err := codec.Lookup(codec.SZ)
		if err != nil {
			t.Fatal(err)
		}
		if err := codec.Register(chaosCodec{id: "chaos-srv", inner: inner}); err != nil {
			t.Fatal(err)
		}
	})
	return "chaos-srv"
}

// --- lame-duck drain -----------------------------------------------------

func TestDrainRefusesNewFinishesInflight(t *testing.T) {
	s, ts := testServer(t, core.Config{}, core.CalibrationOptions{}, Config{})
	body := EncodeField(testField(t, 16))

	// Warm request: calibrates the field, proves the server serves.
	if resp, out := post(t, ts.URL+"/v1/compress/rho", body, nil); resp.StatusCode != 200 {
		t.Fatalf("warm request: HTTP %d: %s", resp.StatusCode, out)
	}

	// Race one request against BeginDrain: whichever wins, the admitted
	// request must finish and the drain must complete.
	type res struct {
		code int
		body []byte
	}
	inflight := make(chan res, 1)
	go func() {
		resp, out := post(t, ts.URL+"/v1/compress/rho", body, nil)
		inflight <- res{resp.StatusCode, out}
	}()
	for s.Stats().Accepted < 2 && s.Stats().Rejected == 0 {
		time.Sleep(time.Millisecond)
	}
	s.BeginDrain()

	// New work is refused with the typed draining 503, never started.
	resp, out := post(t, ts.URL+"/v1/compress/rho", body, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: HTTP %d: %s", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 is missing Retry-After")
	}
	if err := apierr.ErrorFromResponse(resp.StatusCode, out); !errors.Is(err, apierr.ErrDraining) {
		t.Errorf("ErrorFromResponse = %v, want ErrDraining", err)
	}

	// The in-flight request was admitted before the drain began (or
	// refused by it; both are legal outcomes of the race) — but it must
	// terminate, and an admitted one must succeed.
	r := <-inflight
	if r.code != 200 && r.code != http.StatusServiceUnavailable {
		t.Errorf("in-flight request: HTTP %d: %s", r.code, r.body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !s.Draining() {
		t.Error("Draining() = false after BeginDrain")
	}
	st := s.Stats()
	if !st.Draining {
		t.Error("stats do not report draining")
	}

	// Liveness flips too, telling the balancer to route elsewhere.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: HTTP %d", hresp.StatusCode)
	}
}

// --- Retry-After estimation ----------------------------------------------

func TestRetryAfterEstimate(t *testing.T) {
	fixed := time.Unix(1_000_000_000, 0)
	now := func() time.Time { return fixed }
	mkServer := func(cfg Config) *Server {
		t.Helper()
		s, err := newServer(testDriver(t, core.Config{}), core.CalibrationOptions{}, cfg, now)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mkQ := func(tokens float64, costs ...int64) *tenantQ {
		tq := &tenantQ{name: "t", lastRefill: fixed, tokens: tokens}
		for _, c := range costs {
			tq.jobs = append(tq.jobs, &job{cost: c})
		}
		return tq
	}
	estimate := func(s *Server, tq *tenantQ) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.retryAfterLocked(tq)
	}

	// Metered tenant: backlog (less banked tokens) over the refill rate.
	// (2×4096 − 500) / 1000 cells/s = 7.692s → ceil 8.
	s := mkServer(Config{TokenRate: 1000, TokenBurst: 500})
	if got := estimate(s, mkQ(500, 4096, 4096)); got != 8 {
		t.Errorf("metered estimate = %d, want 8", got)
	}

	// A crawling drain rate must not park clients forever: clamp at 30.
	s = mkServer(Config{TokenRate: 1, TokenBurst: 1})
	if got := estimate(s, mkQ(0, 4096, 4096)); got != 30 {
		t.Errorf("clamped estimate = %d, want 30", got)
	}

	// Banked tokens covering the whole backlog: the queue drains on the
	// next dispatcher pass, so the floor of 1 second applies.
	s = mkServer(Config{TokenRate: 1000, TokenBurst: 1 << 20})
	if got := estimate(s, mkQ(1<<20, 4096)); got != 1 {
		t.Errorf("covered-backlog estimate = %d, want 1", got)
	}

	// Unmetered and no throughput observed yet: fall back to 1, the old
	// hardcoded value.
	s = mkServer(Config{})
	if got := estimate(s, mkQ(0, 4096, 4096)); got != 1 {
		t.Errorf("no-rate estimate = %d, want 1", got)
	}
}

func TestOverloadResponseCarriesRetryAfter(t *testing.T) {
	// A token rate near zero parks every admitted job, so the queue fills
	// deterministically and the refusal's estimate clamps at 30s.
	s, ts := testServer(t, core.Config{}, core.CalibrationOptions{}, Config{
		QueueDepth: 2,
		TokenRate:  1e-6,
		TokenBurst: 1,
	})
	body := EncodeField(testField(t, 16))

	// Fill the queue. These handlers park until the test server's cleanup
	// closes the service (draining them with typed errors), so the
	// goroutines touch no testing state and are never waited on.
	fill := func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compress/rho", bytes.NewReader(body))
		if err != nil {
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}
	go fill()
	go fill()
	// Probe only once both fillers are parked in the queue — a probe sent
	// earlier would itself be admitted and park forever.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Accepted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	resp, out := post(t, ts.URL+"/v1/compress/rho", body, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: HTTP %d: %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Errorf("Retry-After = %q, want the clamped estimate \"30\"", got)
	}
	if err := apierr.ErrorFromResponse(resp.StatusCode, out); !errors.Is(err, apierr.ErrOverloaded) {
		t.Errorf("ErrorFromResponse = %v, want ErrOverloaded", err)
	}
}

// --- panic isolation -----------------------------------------------------

func TestCodecPanicIsolatedToOffendingRequest(t *testing.T) {
	id := registerChaos(t)
	s, ts := testServer(t, core.Config{Codec: id}, core.CalibrationOptions{}, Config{})

	hostile := testField(t, 16)
	hostile.Data[0] = chaosTrigger
	resp, out := post(t, ts.URL+"/v1/compress/rho", EncodeField(hostile), map[string]string{"X-Tenant": "evil"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("hostile compress: HTTP %d: %s", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), "panic") {
		t.Errorf("500 body does not identify the panic: %s", out)
	}

	// The panic was contained one field deep: the execute backstop never
	// fired, and the server keeps serving other tenants.
	if n := s.Stats().Panics; n != 0 {
		t.Errorf("execute-level panics = %d, want 0 (per-field isolation should have caught it)", n)
	}
	resp, out = post(t, ts.URL+"/v1/compress/rho", EncodeField(testField(t, 16)), map[string]string{"X-Tenant": "good"})
	if resp.StatusCode != 200 {
		t.Errorf("request after contained panic: HTTP %d: %s", resp.StatusCode, out)
	}
}

func TestExecuteBackstopKeepsWorkerAlive(t *testing.T) {
	s, ts := testServer(t, core.Config{}, core.CalibrationOptions{}, Config{MaxInflight: 1})

	// A decompress job without an archive dereferences nil inside execute:
	// a genuine panic below the backstop. HTTP cannot produce one (the
	// archive is parsed at admission), so the job is admitted directly.
	bad := &job{
		kind: jobDecompress, tenant: "t", field: "(decompress)", cost: 1,
		ctx: context.Background(), queued: time.Now(),
		done: make(chan jobResult, 1),
	}
	_, err := s.await(bad)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("backstop error = %v, want a typed panic failure", err)
	}
	rec := httptest.NewRecorder()
	apierr.WriteError(rec, err)
	if rec.Code != http.StatusInternalServerError || errorCode(rec.Body.Bytes()) != "internal" {
		t.Errorf("panicking job answered HTTP %d %s, want the typed 500", rec.Code, rec.Body.Bytes())
	}
	if n := s.Stats().Panics; n != 1 {
		t.Errorf("panics = %d, want 1", n)
	}

	// The only worker survived the panic and serves the next request.
	resp, out := post(t, ts.URL+"/v1/compress/rho", EncodeField(testField(t, 16)), nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("request after the panic: HTTP %d: %s", resp.StatusCode, out)
	}
}

// --- per-tenant quality floors -------------------------------------------

func TestQualityFloorsCapBudgetScale(t *testing.T) {
	s, err := newServer(testDriver(t, core.Config{}), core.CalibrationOptions{}, Config{
		QualityFloors: map[string]float64{"capped": 1},
	}, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mkJob := func(tenant string) *job {
		return &job{
			kind: jobCompress, tenant: tenant, field: "rho",
			data: testField(t, 16), cost: 4096,
			ctx: context.Background(), queued: time.Now(),
		}
	}
	// Run at a stepped-up operating point (level 2 of the default ×2
	// step), as the load controller would under pressure.
	s.lc.level = 2
	cr, fr := s.execute(mkJob("capped")), s.execute(mkJob("free"))
	if cr.err != nil || fr.err != nil {
		t.Fatalf("compress errors: capped=%v free=%v", cr.err, fr.err)
	}
	if cr.scale != 1 {
		t.Errorf("floored tenant compressed at scale %g, contract cap is 1", cr.scale)
	}
	if fr.scale != 4 {
		t.Errorf("unfloored tenant scale = %g, want the controller's 4", fr.scale)
	}
	if string(cr.archive) == string(fr.archive) {
		t.Error("floored and stepped-up archives are identical; the floor did not change the operating point")
	}
	// The floor holds the tenant at exactly the unscaled operating point:
	// its bytes equal a fresh tenant's at level 0.
	s.lc.level = 0
	if rr := s.execute(mkJob("ref")); rr.err != nil || string(rr.archive) != string(cr.archive) {
		t.Errorf("floored archive differs from the unscaled one (err %v)", rr.err)
	}
}

func TestQualityFloorValidation(t *testing.T) {
	_, err := newServer(testDriver(t, core.Config{}), core.CalibrationOptions{}, Config{
		QualityFloors: map[string]float64{"t": 0.5},
	}, time.Now)
	if !errors.Is(err, apierr.ErrBadConfig) {
		t.Errorf("floor below 1: err = %v, want ErrBadConfig", err)
	}
}
