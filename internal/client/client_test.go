package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apierr"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/server"
)

// script is a deterministic response sequence: each call pops the next
// scripted response; past the end everything succeeds with the fallback.
type script struct {
	t     *testing.T
	calls atomic.Int64
	steps []func(w http.ResponseWriter, r *http.Request)
	done  func(w http.ResponseWriter, r *http.Request)
}

func (s *script) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(s.calls.Add(1)) - 1
		if i < len(s.steps) {
			s.steps[i](w, r)
			return
		}
		if s.done != nil {
			s.done(w, r)
			return
		}
		s.t.Errorf("unexpected request %d to %s", i, r.URL.Path)
		w.WriteHeader(http.StatusTeapot)
	})
}

// respond writes a service-style typed error envelope.
func respondError(status int, code, msg string, retryAfter int) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if retryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprint(retryAfter))
		}
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"error":{"code":%q,"message":%q}}`, code, msg)
	}
}

func respondArchive(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("X-Rate-Level", "2")
	w.Header().Set("X-Budget-Scale", "2.25")
	w.Header().Set("X-Bit-Rate", "3.5")
	w.Header().Set("X-Ratio", "9.1")
	_, _ = w.Write([]byte("archive-bytes"))
}

// testClient builds a client against a scripted server with a fake clock:
// Sleep records and advances instantly, Rand is pinned to 0.5.
func testClient(t *testing.T, sc *script, mutate func(*Config)) (*Client, *faultinject.Clock) {
	t.Helper()
	ts := httptest.NewServer(sc.handler())
	t.Cleanup(ts.Close)
	ck := faultinject.NewClock()
	cfg := Config{
		BaseURL:    ts.URL,
		Tenant:     "t0",
		HTTPClient: ts.Client(),
		Now:        ck.Now,
		Sleep: func(ctx context.Context, d time.Duration) error {
			ck.Sleep(d)
			return ctx.Err()
		},
		Rand: func() float64 { return 0.5 },
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, ck
}

func field(t *testing.T) *grid.Field3D {
	t.Helper()
	f := grid.NewField3D(2, 2, 2)
	for i := range f.Data {
		f.Data[i] = float32(i)
	}
	return f
}

func TestCompressParsesRateHeaders(t *testing.T) {
	sc := &script{t: t, steps: []func(http.ResponseWriter, *http.Request){
		func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/compress/density" {
				t.Errorf("path = %q", r.URL.Path)
			}
			if r.Header.Get("X-Tenant") != "t0" {
				t.Errorf("tenant header = %q", r.Header.Get("X-Tenant"))
			}
			respondArchive(w, r)
		},
	}}
	c, _ := testClient(t, sc, nil)
	res, err := c.Compress(context.Background(), "density", field(t))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Archive) != "archive-bytes" {
		t.Errorf("archive = %q", res.Archive)
	}
	if res.RateLevel != 2 || res.BudgetScale != 2.25 || res.BitRate != 3.5 || res.Ratio != 9.1 {
		t.Errorf("operating point = %+v", res)
	}
	if ctr := c.Counters(); ctr.Attempts != 1 || ctr.Retries != 0 {
		t.Errorf("counters = %+v", ctr)
	}
}

func TestRetryHonorsRetryAfterWithJitterOnTop(t *testing.T) {
	sc := &script{t: t, steps: []func(http.ResponseWriter, *http.Request){
		respondError(429, "overloaded", "queue full", 2),
		respondError(429, "overloaded", "queue full", 3),
		respondArchive,
	}}
	c, ck := testClient(t, sc, func(cfg *Config) {
		cfg.BaseBackoff = 100 * time.Millisecond
		cfg.MaxBackoff = time.Second
	})
	if _, err := c.Compress(context.Background(), "density", field(t)); err != nil {
		t.Fatal(err)
	}
	// Rand pinned to 0.5: retry 0 jitters 0.5·100ms, retry 1 jitters
	// 0.5·200ms, each on top of the server's Retry-After floor.
	want := []time.Duration{
		2*time.Second + 50*time.Millisecond,
		3*time.Second + 100*time.Millisecond,
	}
	got := ck.Sleeps()
	if len(got) != len(want) {
		t.Fatalf("sleeps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v (Retry-After floor must be honored)", i, got[i], want[i])
		}
	}
	ctr := c.Counters()
	if ctr.Attempts != 3 || ctr.Retries != 2 || ctr.Rejected != 2 {
		t.Errorf("counters = %+v", ctr)
	}
}

func TestBackoffIsCappedExponentialWithFullJitter(t *testing.T) {
	steps := []func(http.ResponseWriter, *http.Request){}
	for i := 0; i < 5; i++ {
		steps = append(steps, respondError(429, "overloaded", "queue full", 0))
	}
	sc := &script{t: t, steps: steps, done: respondArchive}
	c, ck := testClient(t, sc, func(cfg *Config) {
		cfg.MaxAttempts = 6
		cfg.BaseBackoff = 100 * time.Millisecond
		cfg.MaxBackoff = 400 * time.Millisecond
		cfg.Breaker = BreakerConfig{Threshold: -1} // 5 failures would trip the default
	})
	if _, err := c.Compress(context.Background(), "density", field(t)); err != nil {
		t.Fatal(err)
	}
	// No Retry-After: pure full jitter over 100, 200, 400, 400, 400ms.
	want := []time.Duration{50, 100, 200, 200, 200}
	got := ck.Sleeps()
	if len(got) != len(want) {
		t.Fatalf("sleeps = %v", got)
	}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("sleep %d = %v, want %v", i, got[i], want[i]*time.Millisecond)
		}
	}
}

func TestDrainingRefusalIsRetriedAndTyped(t *testing.T) {
	sc := &script{t: t, steps: []func(http.ResponseWriter, *http.Request){
		respondError(503, "draining", "lame-duck", 1),
		respondArchive,
	}}
	c, _ := testClient(t, sc, nil)
	if _, err := c.Compress(context.Background(), "density", field(t)); err != nil {
		t.Fatal(err)
	}
	if ctr := c.Counters(); ctr.Rejected != 1 || ctr.Retries != 1 {
		t.Errorf("counters = %+v", ctr)
	}

	// Exhausted retries surface the typed sentinel.
	sc2 := &script{t: t, done: respondError(503, "draining", "lame-duck", 1)}
	c2, _ := testClient(t, sc2, func(cfg *Config) { cfg.MaxAttempts = 2 })
	_, err := c2.Compress(context.Background(), "density", field(t))
	if !errors.Is(err, apierr.ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
}

func TestCompressNeverRetriesServerErrors(t *testing.T) {
	sc := &script{t: t, steps: []func(http.ResponseWriter, *http.Request){
		respondError(500, "internal", "job execution panicked", 0),
	}}
	c, ck := testClient(t, sc, nil)
	_, err := c.Compress(context.Background(), "density", field(t))
	if err == nil {
		t.Fatal("want error")
	}
	// A 500 may have executed server-side; compress is not idempotent, so
	// exactly one attempt and no sleeps.
	if ctr := c.Counters(); ctr.Attempts != 1 || ctr.Retries != 0 {
		t.Errorf("counters = %+v", ctr)
	}
	if len(ck.Sleeps()) != 0 {
		t.Errorf("slept %v on a non-retryable failure", ck.Sleeps())
	}
}

func TestDecompressRetriesServerErrors(t *testing.T) {
	f := field(t)
	sc := &script{t: t, steps: []func(http.ResponseWriter, *http.Request){
		respondError(500, "internal", "transient", 0),
		func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write(server.EncodeField(f)) },
	}}
	c, _ := testClient(t, sc, nil)
	got, err := c.Decompress(context.Background(), []byte("archive"))
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameShape(f) {
		t.Errorf("decoded shape %v", got)
	}
	if ctr := c.Counters(); ctr.Attempts != 2 || ctr.Retries != 1 {
		t.Errorf("counters = %+v", ctr)
	}
}

func TestBadRequestIsNeverRetried(t *testing.T) {
	sc := &script{t: t, steps: []func(http.ResponseWriter, *http.Request){
		respondError(400, "bad_config", "invalid field name", 0),
	}}
	c, _ := testClient(t, sc, nil)
	_, err := c.Decompress(context.Background(), []byte("archive"))
	if !errors.Is(err, apierr.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	if ctr := c.Counters(); ctr.Attempts != 1 {
		t.Errorf("counters = %+v", ctr)
	}
}

func TestStats(t *testing.T) {
	sc := &script{t: t, steps: []func(http.ResponseWriter, *http.Request){
		func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet || r.URL.Path != "/v1/stats" {
				t.Errorf("%s %s", r.Method, r.URL.Path)
			}
			_ = json.NewEncoder(w).Encode(server.Stats{Served: 42, Draining: true})
		},
	}}
	c, _ := testClient(t, sc, nil)
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Served != 42 || !st.Draining {
		t.Errorf("stats = %+v", st)
	}
}

func TestBreakerOpensHalfOpensAndCloses(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	sc := &script{t: t, done: func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			respondError(500, "internal", "down", 0)(w, r)
			return
		}
		respondArchive(w, r)
	}}
	c, ck := testClient(t, sc, func(cfg *Config) {
		cfg.MaxAttempts = 1
		cfg.Breaker = BreakerConfig{Threshold: 3, Cooldown: 2 * time.Second}
	})
	ctx := context.Background()
	f := field(t)

	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.Compress(ctx, "density", f); err == nil {
			t.Fatal("want failure")
		}
	}
	// Open: the next call fails fast, locally, typed.
	_, err := c.Compress(ctx, "density", f)
	if !errors.Is(err, apierr.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if ctr := c.Counters(); ctr.Attempts != 3 || ctr.CircuitOpen != 1 {
		t.Errorf("counters = %+v (open breaker must not send HTTP)", ctr)
	}
	// Endpoints break independently: stats still flows... to a scripted
	// 500 here, but the point is it reaches the wire.
	if _, err := c.Stats(ctx); errors.Is(err, apierr.ErrCircuitOpen) {
		t.Errorf("stats shares compress's breaker: %v", err)
	}

	// Half-open after the cooldown: one probe; it fails, re-opening.
	ck.Advance(2 * time.Second)
	if _, err := c.Compress(ctx, "density", f); errors.Is(err, apierr.ErrCircuitOpen) {
		t.Fatalf("cooldown elapsed, want a probe on the wire, got %v", err)
	}
	if _, err := c.Compress(ctx, "density", f); !errors.Is(err, apierr.ErrCircuitOpen) {
		t.Fatalf("failed probe must re-open the breaker, got %v", err)
	}

	// Second cooldown, healthy endpoint: the probe closes the breaker.
	ck.Advance(2 * time.Second)
	fail.Store(false)
	for i := 0; i < 3; i++ {
		if _, err := c.Compress(ctx, "density", f); err != nil {
			t.Fatalf("call %d after recovery: %v", i, err)
		}
	}
}

func TestCircuitOpenReportsLastFailure(t *testing.T) {
	sc := &script{t: t, done: respondError(429, "overloaded", "queue full", 0)}
	c, _ := testClient(t, sc, func(cfg *Config) {
		cfg.MaxAttempts = 4
		cfg.Breaker = BreakerConfig{Threshold: 2, Cooldown: time.Minute}
	})
	// The retry loop itself trips the breaker (2 failures), so the third
	// attempt fails fast mid-call; the error must still expose what the
	// endpoint was actually answering.
	_, err := c.Compress(context.Background(), "density", field(t))
	if !errors.Is(err, apierr.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
}

func TestCallerContextCancelStopsRetries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sc := &script{t: t, done: respondError(429, "overloaded", "queue full", 5)}
	c, _ := testClient(t, sc, func(cfg *Config) {
		cfg.Sleep = func(ctx context.Context, d time.Duration) error {
			cancel() // the caller gives up mid-backoff
			return ctx.Err()
		}
	})
	_, err := c.Compress(ctx, "density", field(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ctr := c.Counters(); ctr.Attempts != 1 {
		t.Errorf("counters = %+v", ctr)
	}
}

func TestAttemptTimeoutIsRetriedForIdempotentReads(t *testing.T) {
	f := field(t)
	var n atomic.Int64
	sc := &script{t: t, done: func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			// First attempt hangs past the per-attempt deadline. Drain the
			// body first: net/http only watches for client disconnect once
			// the request body has been consumed, and without that watch the
			// handler (and the test server's Close) would never unblock.
			_, _ = io.ReadAll(r.Body)
			<-r.Context().Done()
			return
		}
		_, _ = w.Write(server.EncodeField(f))
	}}
	c, _ := testClient(t, sc, func(cfg *Config) {
		cfg.AttemptTimeout = 50 * time.Millisecond
		cfg.Sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	})
	got, err := c.Decompress(context.Background(), []byte("archive"))
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameShape(f) {
		t.Errorf("decoded shape %v", got)
	}
	if ctr := c.Counters(); ctr.Attempts != 2 || ctr.Retries != 1 {
		t.Errorf("counters = %+v", ctr)
	}
}

func TestConnectionResetRetriesOnlyIdempotent(t *testing.T) {
	// A faultinject-reset connection kills the first attempt mid-flight;
	// decompress (idempotent) retries onto a fresh conn, compress does not.
	f := field(t)
	var accepts atomic.Int64
	mk := func() (*httptest.Server, *Client) {
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write(server.EncodeField(f))
		}))
		ts.Listener = faultinject.WrapListener(ts.Listener, func(accept int) faultinject.ConnFaults {
			if accepts.Add(1) == 1 {
				return faultinject.ConnFaults{ResetAfterBytes: 64}
			}
			return faultinject.ConnFaults{}
		})
		ts.Start()
		t.Cleanup(ts.Close)
		c, err := New(Config{
			BaseURL:    ts.URL,
			HTTPClient: &http.Client{}, // fresh transport: no pooled conns across tests
			Sleep:      func(ctx context.Context, d time.Duration) error { return ctx.Err() },
			Rand:       func() float64 { return 0.5 },
		})
		if err != nil {
			t.Fatal(err)
		}
		return ts, c
	}

	accepts.Store(0)
	_, c := mk()
	if _, err := c.Decompress(context.Background(), []byte("archive")); err != nil {
		t.Fatalf("idempotent read across a reset conn: %v", err)
	}
	if ctr := c.Counters(); ctr.Retries != 1 {
		t.Errorf("counters = %+v, want one transport retry", ctr)
	}

	accepts.Store(0)
	_, c2 := mk()
	if _, err := c2.Compress(context.Background(), "density", f); err == nil {
		t.Fatal("compress across a reset conn must fail, not retry")
	}
	if ctr := c2.Counters(); ctr.Retries != 0 {
		t.Errorf("counters = %+v, compress must not retry transport errors", ctr)
	}
}
