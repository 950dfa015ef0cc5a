// Package server is the networked compression service: the paper's
// adaptive in situ compressor behind an HTTP API, shared by many
// simulation clients ("tenants") at once.
//
// The design goal is bounded everything. Requests land in per-tenant
// bounded FIFO queues (full queue → typed 429, the backpressure signal); a
// fixed set of MaxInflight workers pulls jobs from the queues by deficit
// round-robin, so a tenant streaming thousands of small fields cannot
// starve one submitting a few large ones, and runs each request as one
// engine call, which itself fans out over the shared worker pool
// (internal/parallel) rather than spawning per-request goroutines;
// per-tenant token buckets meter cells per second. On top
// of the pipeline's data-drift adaptation, a load controller steps
// error-bound budgets up under pressure (queue depth, p99 latency vs SLO)
// and back down when it clears — trading rate for throughput exactly when
// the service would otherwise fall behind, the same move JetStream-style
// adaptive transports make.
//
// Transport is HTTP/1.1 and cleartext HTTP/2 (h2c) from the stdlib; h2c is
// what lets thousands of concurrent in situ ranks multiplex onto a few
// connections. Failures map the apierr taxonomy onto typed JSON error
// responses (apierr.WriteError), so errors.Is-style dispatch survives the
// network hop as machine-readable codes.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apierr"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// Config tunes the service. The zero value of every knob selects a sane
// default; Validate rejects negatives wrapping apierr.ErrBadConfig.
type Config struct {
	// QueueDepth bounds each tenant's admission queue (default 64). A full
	// queue refuses with a typed 429 — backpressure, not buffering.
	QueueDepth int
	// MaxTenants bounds the tenant table (default 1024): tenant state must
	// not grow without bound under hostile tenant-name churn.
	MaxTenants int
	// Quantum is the deficit-round-robin credit in cells per visit to a
	// tenant (default 2^20). Tenants with queued work receive equal quanta,
	// so throughput shares are equal in cells, not in requests.
	Quantum int64
	// TokenRate meters each tenant to this many cells per second
	// (0 = unmetered). TokenBurst is the bucket size (default 4×Quantum).
	TokenRate  float64
	TokenBurst float64
	// MaxInflight is the number of workers, and so bounds concurrently
	// executing requests (default GOMAXPROCS).
	MaxInflight int
	// MaxBodyBytes caps a request body (default 2^28) and MaxFieldCells a
	// decoded field (default 2^24 cells = 64 MiB of fp32).
	MaxBodyBytes  int64
	MaxFieldCells int64
	// QualityFloors caps the load controller's budget scale per tenant —
	// the contract floor: a tenant mapped here never compresses with an
	// effective BudgetScale above its cap, no matter how far the controller
	// steps the rest of the fleet up under load. Values must be ≥ 1 (1 =
	// the tenant always runs at the unscaled budget). Tenants absent from
	// the map follow the controller freely.
	QualityFloors map[string]float64
	// Adapt tunes the load-driven rate controller.
	Adapt AdaptConfig
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.MaxTenants == 0 {
		c.MaxTenants = 1024
	}
	if c.Quantum == 0 {
		c.Quantum = 1 << 20
	}
	if c.TokenBurst == 0 {
		c.TokenBurst = 4 * float64(c.Quantum)
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 28
	}
	if c.MaxFieldCells == 0 {
		c.MaxFieldCells = 1 << 24
	}
	if c.Adapt.HighQueue == 0 {
		c.Adapt.HighQueue = c.QueueDepth
	}
	c.Adapt = c.Adapt.withDefaults()
	return c
}

// Validate rejects nonsensical knobs (NaN among them) wrapping
// apierr.ErrBadConfig.
func (c Config) Validate() error {
	bad := func(what string, v any) error {
		return fmt.Errorf("server: %w: %s must not be negative (got %v)", apierr.ErrBadConfig, what, v)
	}
	switch {
	case c.QueueDepth < 0:
		return bad("QueueDepth", c.QueueDepth)
	case c.MaxTenants < 0:
		return bad("MaxTenants", c.MaxTenants)
	case c.Quantum < 0:
		return bad("Quantum", c.Quantum)
	case !(c.TokenRate >= 0):
		return bad("TokenRate", c.TokenRate)
	case !(c.TokenBurst >= 0):
		return bad("TokenBurst", c.TokenBurst)
	case c.MaxInflight < 0:
		return bad("MaxInflight", c.MaxInflight)
	case c.MaxBodyBytes < 0:
		return bad("MaxBodyBytes", c.MaxBodyBytes)
	case c.MaxFieldCells < 0:
		return bad("MaxFieldCells", c.MaxFieldCells)
	case math.IsNaN(c.Adapt.EBStep) || math.IsInf(c.Adapt.EBStep, 0):
		return fmt.Errorf("server: %w: Adapt.EBStep must be finite (got %g)", apierr.ErrBadConfig, c.Adapt.EBStep)
	}
	for tenant, cap := range c.QualityFloors {
		if !(cap >= 1) {
			return fmt.Errorf("server: %w: quality floor for tenant %q must be ≥ 1 (got %g): 1 is the unscaled budget, the floor caps how far above it load stepping may go", apierr.ErrBadConfig, tenant, cap)
		}
	}
	return nil
}

// metrics are the service counters, all atomics so the stats endpoint
// never contends with the hot path.
type metrics struct {
	accepted, served, failed, rejected, canceled atomic.Uint64
	runs, cells, bytesOut                        atomic.Uint64
	panics, archiveErrs                          atomic.Uint64
}

// Server multiplexes compression requests onto one pipeline driver. Build
// with New, expose with Handler (typically via NewHTTPServer for h2c),
// stop with Close.
type Server struct {
	cfg     Config
	drv     *pipeline.Driver
	calOpts core.CalibrationOptions
	lc      *loadController
	now     func() time.Time
	start   time.Time

	baseCtx  context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	wake     chan struct{} // buffered 1: admission signals an idle worker
	draining atomic.Bool

	archMu sync.Mutex
	arch   *core.StreamWriter

	mu       sync.Mutex
	tenants  map[string]*tenantQ
	order    []*tenantQ
	rrPos    int  // the tenant the DRR pick visits
	visiting bool // order[rrPos] has been credited for its current visit
	queued   int
	closed   bool

	m metrics
}

// New builds a server over an existing pipeline driver (whose engine,
// worker pool, and per-tenant-field calibration state it shares) and
// starts its workers. cal tunes the /v1/calibrate endpoint's sampling.
func New(drv *pipeline.Driver, cal core.CalibrationOptions, cfg Config) (*Server, error) {
	s, err := newServer(drv, cal, cfg, time.Now)
	if err != nil {
		return nil, err
	}
	s.Start()
	return s, nil
}

// newServer builds without starting the workers — tests drive nextJob by
// hand against an injected clock.
func newServer(drv *pipeline.Driver, cal core.CalibrationOptions, cfg Config, now func() time.Time) (*Server, error) {
	if drv == nil {
		return nil, fmt.Errorf("server: %w: nil pipeline driver", apierr.ErrBadConfig)
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:     cfg,
		drv:     drv,
		calOpts: cal,
		lc:      newLoadController(cfg.Adapt, now),
		now:     now,
		start:   now(),
		baseCtx: ctx,
		cancel:  cancel,
		wake:    make(chan struct{}, 1),
		tenants: make(map[string]*tenantQ),
	}, nil
}

// Start launches the MaxInflight workers. New calls it; only tests built
// on newServer call it directly.
func (s *Server) Start() {
	for range s.cfg.MaxInflight {
		s.wg.Add(1)
		go s.worker()
	}
}

// Close stops admission, fails every queued request with the overload
// error, waits for in-flight requests, and returns. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	return nil
}

// BeginDrain puts the server in lame-duck mode: every new request is
// refused with a typed 503 (apierr.ErrDraining, never started, safe to
// retry elsewhere) while queued and in-flight work keeps executing to
// completion. Idempotent; Close still performs the final stop.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether the server is in lame-duck mode.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain enters lame-duck mode and blocks until every admitted request has
// been answered (served, failed, or canceled) or ctx expires — the SIGTERM
// half of graceful shutdown: Drain, then Close, then exit 0.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.outstanding() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain interrupted with %d requests outstanding: %w", s.outstanding(), ctx.Err())
		case <-tick.C:
		}
	}
}

// outstanding counts admitted-but-unanswered requests. Every admission
// increments accepted; every answer lands in exactly one of served,
// failed, or canceled.
func (s *Server) outstanding() uint64 {
	return s.m.accepted.Load() - s.m.served.Load() - s.m.failed.Load() - s.m.canceled.Load()
}

// AttachArchive directs every successfully compressed request into a v3
// stream writer as one one-field step (the field name is the
// tenant-qualified step key). The caller owns the writer's lifecycle: attach before serving
// traffic, Close the server, then Close the writer for the footer — or
// crash and let core.RecoverStream salvage the checkpointed prefix, which
// is the chaos suite's whole scenario. Pass nil to detach.
func (s *Server) AttachArchive(sw *core.StreamWriter) {
	s.archMu.Lock()
	s.arch = sw
	s.archMu.Unlock()
}

// archiveStep appends one request's compressed field to the attached
// archive, if any. Serialized by archMu: steps from concurrent requests
// interleave whole, never torn. Write failures are counted but do not fail
// the request — the archive is an observer of the compression, not a stage
// in it.
func (s *Server) archiveStep(fields map[string]*core.CompressedField) {
	s.archMu.Lock()
	defer s.archMu.Unlock()
	if s.arch == nil || len(fields) == 0 {
		return
	}
	if err := s.arch.WriteStep(fields); err != nil {
		s.m.archiveErrs.Add(1)
	}
}

// Stats is the service snapshot the /v1/stats endpoint serves.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Accepted      uint64  `json:"accepted"`
	Served        uint64  `json:"served"`
	Failed        uint64  `json:"failed"`
	Rejected      uint64  `json:"rejected"`
	Canceled      uint64  `json:"canceled"`
	Queued        int     `json:"queued"`
	Tenants       int     `json:"tenants"`
	// Batches counts engine runs: one per dispatched request.
	Batches      uint64  `json:"batches"`
	Level        int     `json:"level"`
	BudgetScale  float64 `json:"budget_scale"`
	StepUps      uint64  `json:"step_ups"`
	StepDowns    uint64  `json:"step_downs"`
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	Cells        uint64  `json:"cells"`
	BytesOut     uint64  `json:"bytes_out"`
	// Draining is set while the server is in lame-duck mode.
	Draining bool `json:"draining"`
	// Panics counts request executions that recovered from a panic; each
	// failed with a typed 500 and its worker carried on.
	Panics uint64 `json:"panics"`
	// ArchiveErrs counts attached-archive step writes that failed.
	ArchiveErrs uint64 `json:"archive_errs"`
}

// Stats snapshots the service counters and controller state.
func (s *Server) Stats() Stats {
	level, scale, p50, p99, ups, downs := s.lc.snapshot()
	s.mu.Lock()
	queued, tenants := s.queued, len(s.tenants)
	s.mu.Unlock()
	return Stats{
		UptimeSeconds: s.now().Sub(s.start).Seconds(),
		Accepted:      s.m.accepted.Load(),
		Served:        s.m.served.Load(),
		Failed:        s.m.failed.Load(),
		Rejected:      s.m.rejected.Load(),
		Canceled:      s.m.canceled.Load(),
		Queued:        queued,
		Tenants:       tenants,
		Batches:       s.m.runs.Load(),
		Level:         level,
		BudgetScale:   scale,
		StepUps:       ups,
		StepDowns:     downs,
		LatencyP50Ms:  float64(p50) / float64(time.Millisecond),
		LatencyP99Ms:  float64(p99) / float64(time.Millisecond),
		Cells:         s.m.cells.Load(),
		BytesOut:      s.m.bytesOut.Load(),
		Draining:      s.draining.Load(),
		Panics:        s.m.panics.Load(),
		ArchiveErrs:   s.m.archiveErrs.Load(),
	}
}

// Handler returns the service's HTTP API:
//
//	POST /v1/compress/{field}   raw field in  → archive v2 out
//	POST /v1/decompress         archive v2 in → raw field out
//	POST /v1/calibrate/{field}  raw field in  → calibration JSON out
//	GET  /v1/stats              service counters and controller state
//	GET  /healthz               liveness
//
// Tenancy comes from the X-Tenant header (default "default"). A `timeout`
// query parameter (Go duration) bounds the request server-side on top of
// the client's own disconnect/cancellation.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compress/{field}", func(w http.ResponseWriter, r *http.Request) {
		s.handleField(w, r, jobCompress)
	})
	mux.HandleFunc("POST /v1/calibrate/{field}", func(w http.ResponseWriter, r *http.Request) {
		s.handleField(w, r, jobCalibrate)
	})
	mux.HandleFunc("POST /v1/decompress", s.handleDecompress)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// A draining server reports unhealthy so load balancers stop
		// routing to it while in-flight work finishes.
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// NewHTTPServer wraps a handler in an http.Server speaking HTTP/1.1 and
// cleartext HTTP/2 (h2c) on addr — stdlib-only, no TLS, which is what an
// on-cluster sidecar service wants: h2c gives each simulation rank stream
// multiplexing over one TCP connection.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	p := new(http.Protocols)
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	return &http.Server{Addr: addr, Handler: h, Protocols: p}
}

// NewH2CTransport returns an http.Transport that speaks h2c to
// NewHTTPServer instances — the client half used by the load generator and
// tests.
func NewH2CTransport() *http.Transport {
	p := new(http.Protocols)
	p.SetUnencryptedHTTP2(true)
	return &http.Transport{Protocols: p}
}

// nameOK validates tenant and field names: short, printable, and free of
// the stepKey separator.
func nameOK(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for _, r := range name {
		if r < 0x20 || r == 0x7f {
			return false
		}
	}
	return true
}

// requestSetup pulls the common request plumbing: tenant, body, and the
// effective context. The returned cancel must be called by the handler.
func (s *Server) requestSetup(w http.ResponseWriter, r *http.Request) (tenant string, body []byte, ctx context.Context, cancel context.CancelFunc, err error) {
	tenant = r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	if !nameOK(tenant) {
		return "", nil, nil, nil, fmt.Errorf("server: %w: invalid tenant name %q", apierr.ErrBadConfig, tenant)
	}
	body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return "", nil, nil, nil, fmt.Errorf("server: reading request body: %w", err)
	}
	ctx, cancel = r.Context(), func() {}
	if t := r.URL.Query().Get("timeout"); t != "" {
		d, perr := time.ParseDuration(t)
		if perr != nil || d <= 0 {
			return "", nil, nil, nil, fmt.Errorf("server: %w: bad timeout %q", apierr.ErrBadConfig, t)
		}
		ctx, cancel = context.WithTimeout(ctx, d)
	}
	return tenant, body, ctx, cancel, nil
}

// handleField serves compress and calibrate: both take a raw field in.
func (s *Server) handleField(w http.ResponseWriter, r *http.Request, kind jobKind) {
	field := r.PathValue("field")
	if !nameOK(field) {
		apierr.WriteError(w, fmt.Errorf("server: %w: invalid field name %q", apierr.ErrBadConfig, field))
		return
	}
	tenant, body, ctx, cancel, err := s.requestSetup(w, r)
	if err != nil {
		apierr.WriteError(w, err)
		return
	}
	defer cancel()
	f, err := DecodeField(body, s.cfg.MaxFieldCells)
	if err != nil {
		apierr.WriteError(w, err)
		return
	}
	j := &job{
		kind: kind, tenant: tenant, field: field, data: f,
		cost: int64(f.Len()), ctx: ctx, queued: s.now(),
		done: make(chan jobResult, 1),
	}
	res, err := s.await(j)
	if err != nil {
		apierr.WriteError(w, err)
		return
	}
	switch kind {
	case jobCompress:
		s.writeRateHeaders(w, res)
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(res.archive)
	case jobCalibrate:
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(calibrationJSON(res.cal))
	}
}

// handleDecompress serves archive v2 → raw field.
func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	tenant, body, ctx, cancel, err := s.requestSetup(w, r)
	if err != nil {
		apierr.WriteError(w, err)
		return
	}
	defer cancel()
	// Parse at admission: it validates headers without decompressing, the
	// cell count is the job's queueing cost, and a corrupt archive never
	// occupies a queue slot.
	cf, err := core.ParseCompressedField(body)
	if err != nil {
		apierr.WriteError(w, err)
		return
	}
	if n := int64(cf.N()); n > s.cfg.MaxFieldCells {
		apierr.WriteError(w, fmt.Errorf("server: %w: archive holds %d cells, limit %d", apierr.ErrBadConfig, n, s.cfg.MaxFieldCells))
		return
	}
	j := &job{
		kind: jobDecompress, tenant: tenant, field: "(decompress)", cf: cf,
		cost: int64(cf.N()), ctx: ctx, queued: s.now(),
		done: make(chan jobResult, 1),
	}
	res, err := s.await(j)
	if err != nil {
		apierr.WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(EncodeField(res.field))
}

// await admits a job and blocks until its result or its context's death —
// whichever first. An abandoned job is dropped when the DRR pick reaches it
// at its queue head (or executed harmlessly if already picked; the
// buffered done channel absorbs the unread result).
func (s *Server) await(j *job) (jobResult, error) {
	if err := s.admit(j); err != nil {
		return jobResult{}, err
	}
	select {
	case res := <-j.done:
		if res.err != nil {
			return jobResult{}, res.err
		}
		return res, nil
	case <-j.ctx.Done():
		return jobResult{}, fmt.Errorf("server: request %w", j.ctx.Err())
	}
}

// writeRateHeaders reports the operating point a compression ran at — how
// clients observe load-driven rate stepping.
func (s *Server) writeRateHeaders(w http.ResponseWriter, res jobResult) {
	h := w.Header()
	h.Set("X-Rate-Level", strconv.Itoa(res.level))
	h.Set("X-Budget-Scale", strconv.FormatFloat(res.scale, 'g', -1, 64))
	if res.stats != nil {
		h.Set("X-Bit-Rate", strconv.FormatFloat(res.stats.BitRate, 'g', 6, 64))
		h.Set("X-Ratio", strconv.FormatFloat(res.stats.Ratio, 'g', 6, 64))
		if res.stats.Recalibrated {
			h.Set("X-Recalibrated", "1")
		}
	}
}

// calibrationView is the /v1/calibrate response: the parts of a
// core.Calibration a remote client can use, including the downgrade
// disclosure (satellite of the PWREL→probe-ladder fix: a client asking for
// the cheap scan under PWREL must see it was given the ladder, and why).
type calibrationView struct {
	Mode            string    `json:"mode"`
	Downgraded      bool      `json:"downgraded"`
	DowngradeReason string    `json:"downgrade_reason,omitempty"`
	FellBack        bool      `json:"fell_back"`
	Residual        float64   `json:"residual"`
	Samples         int       `json:"samples"`
	EBs             []float64 `json:"ebs"`
}

func calibrationJSON(cal *core.Calibration) calibrationView {
	return calibrationView{
		Mode:            cal.Mode.String(),
		Downgraded:      cal.Downgraded,
		DowngradeReason: cal.DowngradeReason,
		FellBack:        cal.FellBack,
		Residual:        cal.Residual,
		Samples:         len(cal.PartitionIDs),
		EBs:             cal.EBs,
	}
}
