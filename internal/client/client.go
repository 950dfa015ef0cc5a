// Package client is the resilient HTTP client for the compression
// service: capped exponential backoff with full jitter that honors the
// server's Retry-After, a per-endpoint closed/open/half-open circuit
// breaker (typed apierr.ErrCircuitOpen), and per-attempt deadlines carved
// from the caller's context.
//
// Retry policy follows the server's own contract (internal/server/queue.go):
// refusals wrapping apierr.ErrOverloaded (429) or apierr.ErrDraining (503)
// mean the request was NEVER STARTED, so they are retried for every
// operation. Anything else — a transport error, a 5xx — may have executed
// server-side, so it is retried only for idempotent reads (decompress,
// stats). Client-caused 4xx and the caller's own context expiry are never
// retried.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apierr"
	"repro/internal/grid"
	"repro/internal/server"
)

// Config tunes a Client. Only BaseURL is required; the zero value of every
// other knob selects a sane default.
type Config struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8323".
	BaseURL string
	// Tenant is sent as the X-Tenant header ("" = the server's default).
	Tenant string
	// HTTPClient overrides the transport (default: a fresh h2c transport,
	// matching the service's NewHTTPServer).
	HTTPClient *http.Client
	// MaxAttempts bounds total tries per call, first attempt included
	// (default 4). 1 disables retries.
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the exponential backoff: retry n
	// sleeps rand·min(MaxBackoff, BaseBackoff·2ⁿ) — full jitter — plus the
	// server's Retry-After when one was given (defaults 50ms and 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// AttemptTimeout bounds each individual attempt on top of the caller's
	// context (0 = attempts run under the caller's deadline alone).
	AttemptTimeout time.Duration
	// MaxResponseBytes caps a response body (default 2^28, the server's
	// own request cap).
	MaxResponseBytes int64
	// Breaker tunes the per-endpoint circuit breaker.
	Breaker BreakerConfig

	// Test seams; nil selects the real clock, a context-aware timer sleep,
	// and math/rand.
	Now   func() time.Time
	Sleep func(context.Context, time.Duration) error
	Rand  func() float64
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Transport: server.NewH2CTransport()}
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.MaxResponseBytes == 0 {
		c.MaxResponseBytes = 1 << 28
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Counters is a snapshot of the client's resilience accounting.
type Counters struct {
	// Attempts counts HTTP requests actually sent.
	Attempts uint64
	// Retries counts backoff-then-retry cycles.
	Retries uint64
	// Rejected counts never-started refusals observed (429 overloaded and
	// 503 draining), whether or not a retry eventually succeeded.
	Rejected uint64
	// CircuitOpen counts calls the breaker failed fast locally.
	CircuitOpen uint64
}

// Client is a resilient client for one compression service. Safe for
// concurrent use.
type Client struct {
	cfg Config

	mu       sync.Mutex
	breakers map[string]*breaker

	attempts, retries, rejected, circuitOpen atomic.Uint64
}

// New builds a Client. Rejections wrap apierr.ErrBadConfig.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("client: %w: BaseURL is required", apierr.ErrBadConfig)
	}
	switch {
	case cfg.MaxAttempts < 0:
		return nil, fmt.Errorf("client: %w: MaxAttempts must not be negative", apierr.ErrBadConfig)
	case cfg.BaseBackoff < 0 || cfg.MaxBackoff < 0 || cfg.AttemptTimeout < 0:
		return nil, fmt.Errorf("client: %w: backoff durations must not be negative", apierr.ErrBadConfig)
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	return &Client{cfg: cfg.withDefaults(), breakers: make(map[string]*breaker)}, nil
}

// Counters snapshots the resilience accounting.
func (c *Client) Counters() Counters {
	return Counters{
		Attempts:    c.attempts.Load(),
		Retries:     c.retries.Load(),
		Rejected:    c.rejected.Load(),
		CircuitOpen: c.circuitOpen.Load(),
	}
}

// CompressResult is one successful compression: the archive plus the
// operating point the service ran it at (the X-Rate-* headers).
type CompressResult struct {
	// Archive is the v2 field archive.
	Archive []byte
	// RateLevel and BudgetScale are the load controller's operating point.
	RateLevel   int
	BudgetScale float64
	// BitRate and Ratio summarize the compression.
	BitRate, Ratio float64
	// Recalibrated is set when this request re-fitted the field's model.
	Recalibrated bool
}

// CalibrationInfo mirrors the service's /v1/calibrate response.
type CalibrationInfo struct {
	Mode            string    `json:"mode"`
	Downgraded      bool      `json:"downgraded"`
	DowngradeReason string    `json:"downgrade_reason,omitempty"`
	FellBack        bool      `json:"fell_back"`
	Residual        float64   `json:"residual"`
	Samples         int       `json:"samples"`
	EBs             []float64 `json:"ebs"`
}

// Compress posts a field for compression. Not idempotent (it advances the
// tenant's calibration state and consumes budget), so only never-started
// refusals are retried.
func (c *Client) Compress(ctx context.Context, field string, f *grid.Field3D) (*CompressResult, error) {
	res, err := c.do(ctx, "compress", false, http.MethodPost,
		"/v1/compress/"+field, server.EncodeField(f))
	if err != nil {
		return nil, err
	}
	out := &CompressResult{Archive: res.body}
	out.RateLevel, _ = strconv.Atoi(res.header.Get("X-Rate-Level"))
	out.BudgetScale, _ = strconv.ParseFloat(res.header.Get("X-Budget-Scale"), 64)
	out.BitRate, _ = strconv.ParseFloat(res.header.Get("X-Bit-Rate"), 64)
	out.Ratio, _ = strconv.ParseFloat(res.header.Get("X-Ratio"), 64)
	out.Recalibrated = res.header.Get("X-Recalibrated") == "1"
	return out, nil
}

// Decompress posts a v2 archive and returns the decoded field. Idempotent:
// also retried on transport errors and 5xx.
func (c *Client) Decompress(ctx context.Context, archive []byte) (*grid.Field3D, error) {
	res, err := c.do(ctx, "decompress", true, http.MethodPost, "/v1/decompress", archive)
	if err != nil {
		return nil, err
	}
	return server.DecodeField(res.body, c.cfg.MaxResponseBytes/4)
}

// Calibrate posts a field for calibration. Treated like Compress for retry
// purposes (the server queues and schedules it like a compression).
func (c *Client) Calibrate(ctx context.Context, field string, f *grid.Field3D) (*CalibrationInfo, error) {
	res, err := c.do(ctx, "calibrate", false, http.MethodPost,
		"/v1/calibrate/"+field, server.EncodeField(f))
	if err != nil {
		return nil, err
	}
	var info CalibrationInfo
	if err := json.Unmarshal(res.body, &info); err != nil {
		return nil, fmt.Errorf("client: calibrate: bad response body: %w", err)
	}
	return &info, nil
}

// Stats fetches the service counter snapshot. Idempotent.
func (c *Client) Stats(ctx context.Context) (*server.Stats, error) {
	res, err := c.do(ctx, "stats", true, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	var st server.Stats
	if err := json.Unmarshal(res.body, &st); err != nil {
		return nil, fmt.Errorf("client: stats: bad response body: %w", err)
	}
	return &st, nil
}

func (c *Client) breakerFor(endpoint string) *breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[endpoint]
	if b == nil {
		b = newBreaker(endpoint, c.cfg.Breaker, c.cfg.Now)
		c.breakers[endpoint] = b
	}
	return b
}

type response struct {
	status int
	header http.Header
	body   []byte
}

// do runs the retry loop for one logical call. idempotent widens the
// retryable class from never-started refusals to transport errors and 5xx.
func (c *Client) do(ctx context.Context, endpoint string, idempotent bool, method, path string, body []byte) (*response, error) {
	return c.doWith(ctx, endpoint, idempotent, method, path, nil, body, nil)
}

// doWith is do with extra request headers and a widened success test:
// accept(status) may admit non-2xx statuses that are successes for the
// caller (a conditional GET's 304). 2xx always succeeds.
func (c *Client) doWith(ctx context.Context, endpoint string, idempotent bool, method, path string, hdr map[string]string, body []byte, accept func(int) bool) (*response, error) {
	br := c.breakerFor(endpoint)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := br.allow(); err != nil {
			c.circuitOpen.Add(1)
			// The breaker's rejection is local and instantaneous; retrying
			// against it would just spin, so it ends the call — but the last
			// real failure (if this loop saw one) is the better diagnosis.
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last failure: %v)", err, lastErr)
			}
			return nil, err
		}
		res, err := c.attempt(ctx, method, path, hdr, body)
		if err == nil && (res.status/100 == 2 || (accept != nil && accept(res.status))) {
			br.record(true)
			return res, nil
		}

		var retryable bool
		var retryAfter time.Duration
		switch {
		case err != nil:
			// Transport failure: the request may or may not have executed.
			br.record(false)
			lastErr = fmt.Errorf("client: %s: %w", endpoint, err)
			retryable = idempotent
		default:
			lastErr = apierr.ErrorFromResponse(res.status, res.body)
			if lastErr == nil {
				lastErr = fmt.Errorf("client: %s: HTTP %d", endpoint, res.status)
			}
			neverStarted := errors.Is(lastErr, apierr.ErrOverloaded) || errors.Is(lastErr, apierr.ErrDraining)
			if neverStarted {
				c.rejected.Add(1)
				retryAfter = parseRetryAfter(res.header.Get("Retry-After"))
			}
			serverTrouble := neverStarted || res.status >= 500
			br.record(!serverTrouble)
			retryable = neverStarted || (idempotent && res.status >= 500)
		}

		if ctx.Err() != nil {
			// The caller's context died (possibly mid-attempt): theirs to
			// handle, never retried.
			return nil, fmt.Errorf("client: %s: %w", endpoint, ctx.Err())
		}
		if !retryable || attempt+1 >= c.cfg.MaxAttempts {
			return nil, lastErr
		}
		c.retries.Add(1)
		if err := c.cfg.Sleep(ctx, c.backoff(attempt, retryAfter)); err != nil {
			return nil, fmt.Errorf("client: %s: backoff interrupted: %w", endpoint, err)
		}
	}
}

// attempt sends one HTTP request under the per-attempt deadline and reads
// the whole (capped) response body.
func (c *Client) attempt(ctx context.Context, method, path string, hdr map[string]string, body []byte) (*response, error) {
	actx, cancel := ctx, context.CancelFunc(func() {})
	if c.cfg.AttemptTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	}
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if c.cfg.Tenant != "" {
		req.Header.Set("X-Tenant", c.cfg.Tenant)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	c.attempts.Add(1)
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxResponseBytes+1))
	if err != nil {
		return nil, err
	}
	if int64(len(out)) > c.cfg.MaxResponseBytes {
		return nil, fmt.Errorf("response body exceeds %d bytes", c.cfg.MaxResponseBytes)
	}
	return &response{status: resp.StatusCode, header: resp.Header, body: out}, nil
}

// backoff computes the sleep before retry number `retry` (0-based): full
// jitter over the capped exponential curve, floored by the server's
// Retry-After when one was given — the jitter rides on top of the floor so
// a herd of clients told "retry after 2" does not return in lockstep.
func (c *Client) backoff(retry int, retryAfter time.Duration) time.Duration {
	d := c.cfg.BaseBackoff
	for i := 0; i < retry && d < c.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	jitter := time.Duration(c.cfg.Rand() * float64(d))
	if retryAfter > 0 {
		return retryAfter + jitter
	}
	return jitter
}

// parseRetryAfter reads the delay-seconds form of a Retry-After header
// (the only form the service emits); anything else maps to zero.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
