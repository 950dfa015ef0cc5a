package server

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/apierr"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/pipeline"
)

// jobKind selects which engine operation a queued request runs.
type jobKind uint8

const (
	jobCompress jobKind = iota
	jobDecompress
	jobCalibrate
)

// job is one admitted request waiting in (or drained from) a tenant queue.
// The handler blocks on done; the server owns the job from admission until
// exactly one jobResult is delivered.
type job struct {
	kind   jobKind
	tenant string
	field  string
	data   *grid.Field3D         // compress / calibrate input
	cf     *core.CompressedField // decompress input
	cost   int64                 // cells, the DRR and token-bucket currency
	ctx    context.Context
	queued time.Time
	done   chan jobResult // buffered 1: delivery never blocks on a gone handler
}

type jobResult struct {
	archive []byte
	field   *grid.Field3D
	cal     *core.Calibration
	stats   *pipeline.FieldStats
	level   int
	scale   float64
	err     error
}

// tenantQ is one tenant's bounded FIFO admission queue plus its deficit
// round-robin and token-bucket accounts. All fields are guarded by
// Server.mu.
type tenantQ struct {
	name string
	jobs []*job
	// deficit is the DRR account: credited one quantum per visit while
	// backlogged, debited by each dispatched job's cost, so
	// tenants with many small fields and tenants with few huge ones get
	// the same share of cells per round.
	deficit int64
	// tokens is the rate-limit account in cells, refilled at
	// Config.TokenRate and capped at the burst size.
	tokens     float64
	lastRefill time.Time
}

func (tq *tenantQ) refill(now time.Time, rate, burst float64) {
	if rate <= 0 {
		return
	}
	if dt := now.Sub(tq.lastRefill).Seconds(); dt > 0 {
		tq.tokens += rate * dt
		if tq.tokens > burst {
			tq.tokens = burst
		}
	}
	tq.lastRefill = now
}

// admit appends a job to its tenant's queue, registering the tenant on
// first sight. Refusals — queue full, tenant table full, shutdown — wrap
// apierr.ErrOverloaded: the request was never started and retrying after a
// backoff is safe.
func (s *Server) admit(j *job) error {
	if s.draining.Load() {
		s.m.rejected.Add(1)
		return fmt.Errorf("server: lame-duck: %w", apierr.ErrDraining)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("server: shutting down: %w", apierr.ErrOverloaded)
	}
	tq := s.tenants[j.tenant]
	if tq == nil {
		if len(s.tenants) >= s.cfg.MaxTenants {
			s.mu.Unlock()
			s.m.rejected.Add(1)
			return fmt.Errorf("server: %w: tenant table full (%d tenants)", apierr.ErrOverloaded, s.cfg.MaxTenants)
		}
		tq = &tenantQ{name: j.tenant, lastRefill: s.now(), tokens: s.cfg.TokenBurst}
		s.tenants[j.tenant] = tq
		s.order = append(s.order, tq)
	}
	if len(tq.jobs) >= s.cfg.QueueDepth {
		retryAfter := s.retryAfterLocked(tq)
		s.mu.Unlock()
		s.m.rejected.Add(1)
		return &apierr.OverloadError{Tenant: j.tenant, QueueDepth: s.cfg.QueueDepth, RetryAfterSeconds: retryAfter}
	}
	tq.jobs = append(tq.jobs, j)
	s.queued++
	s.mu.Unlock()
	s.m.accepted.Add(1)
	s.signal()
	return nil
}

// retryAfterLocked estimates, for a refused tenant, how many seconds until
// its full queue has plausibly drained — the Retry-After a 429 carries.
// The estimate divides the tenant's queued cells (less the tokens already
// banked) by its sustainable drain rate: the token-bucket refill when the
// tenant is metered, else its fair share of the observed service
// throughput. Clamped to [1, 30]: never "now" (the queue IS full), never a
// forever that parks clients. Caller holds s.mu.
func (s *Server) retryAfterLocked(tq *tenantQ) int {
	now := s.now()
	tq.refill(now, s.cfg.TokenRate, s.cfg.TokenBurst)
	var backlog float64
	for _, j := range tq.jobs {
		backlog += float64(j.cost)
	}
	if s.cfg.TokenRate > 0 {
		backlog -= tq.tokens // cells the bucket will admit immediately
	}
	rate := s.cfg.TokenRate
	if up := now.Sub(s.start).Seconds(); up > 0 {
		if obs := float64(s.m.cells.Load()) / up / float64(max(len(s.tenants), 1)); obs > 0 && (rate <= 0 || obs < rate) {
			rate = obs
		}
	}
	if rate <= 0 || backlog <= 0 {
		return 1
	}
	secs := int(math.Ceil(backlog / rate))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// nextJob makes one deficit-round-robin pick. It resumes the visit of the
// tenant at rrPos: the first pick of a visit refills the tenant's tokens
// and credits it one quantum, and the visit serves its head job for as
// long as the deficit (and, when metered, the tokens) cover it; then the
// visit ends and the pick moves on to the next tenant. Jobs whose context
// died while queued are dropped here, answered immediately, and charged
// to nobody's deficit. It returns nil when nothing is eligible right now,
// together with the number of jobs still queued; ok is false once the
// server is closed.
func (s *Server) nextJob() (j *job, queued int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, false
	}
	now := s.now()
	for started := 0; s.visiting || started < len(s.order); {
		tq := s.order[s.rrPos]
		if !s.visiting {
			started++
			if len(tq.jobs) == 0 {
				tq.deficit = 0 // standard DRR: an idle tenant banks nothing
				s.rrPos = (s.rrPos + 1) % len(s.order)
				continue
			}
			tq.refill(now, s.cfg.TokenRate, s.cfg.TokenBurst)
			tq.deficit += s.cfg.Quantum
			s.visiting = true
		}
		for len(tq.jobs) > 0 && tq.jobs[0].ctx.Err() != nil {
			dead := tq.jobs[0]
			tq.jobs = tq.jobs[1:]
			s.queued--
			s.m.canceled.Add(1)
			dead.done <- jobResult{err: fmt.Errorf("server: abandoned in queue: %w", dead.ctx.Err())}
		}
		if len(tq.jobs) > 0 {
			head := tq.jobs[0]
			metered := s.cfg.TokenRate > 0
			if head.cost <= tq.deficit && (!metered || float64(head.cost) <= tq.tokens) {
				tq.jobs = tq.jobs[1:]
				s.queued--
				tq.deficit -= head.cost
				if metered {
					tq.tokens -= float64(head.cost)
				}
				if s.queued > 0 {
					// One buffered wake-up may have been spent on this pick;
					// pass it on so an idle worker takes the rest.
					s.signal()
				}
				return head, s.queued, true
			}
		}
		if len(tq.jobs) == 0 {
			tq.deficit = 0
		} else if lim := s.cfg.Quantum + tq.jobs[0].cost; tq.deficit > lim {
			// A blocked tenant (token-starved, or its head job is huge) may
			// bank enough deficit to pass its head job — but no more, or a
			// long stall would convert into an unfair burst later.
			tq.deficit = lim
		}
		s.visiting = false
		s.rrPos = (s.rrPos + 1) % len(s.order)
	}
	return nil, s.queued, true
}

// signal wakes one idle worker, if none is already due to wake.
func (s *Server) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// worker is one of the MaxInflight engine loops — the backpressure chain
// that keeps thousands of connections from becoming thousands of
// concurrent compressions. It pulls jobs by deficit round-robin and runs
// each as one engine call until the server closes, then fails whatever is
// still queued.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, queued, ok := s.nextJob()
		if !ok {
			s.drainPending()
			return
		}
		if j == nil {
			// Jobs that exist but are not eligible (token-starved or
			// building deficit) need a poll until refill makes progress;
			// an empty queue waits for admission to signal.
			var poll <-chan time.Time
			if queued > 0 {
				poll = time.After(2 * time.Millisecond)
			}
			select {
			case <-s.baseCtx.Done():
			case <-s.wake:
			case <-poll:
			}
			continue
		}
		s.lc.adjust(queued)
		s.m.runs.Add(1)
		s.finish(j, s.execute(j))
	}
}

// execute runs one job at the load controller's current operating point.
//
// The deferred recover is the panic backstop: an unrecovered panic below
// (a codec bug, a hostile archive tripping an unchecked path) would kill
// the whole process. Instead it becomes the job's typed 500 and the worker
// carries on. Panics inside compression are caught a layer deeper, per
// field, by pipeline.StepCompressed.
func (s *Server) execute(j *job) (r jobResult) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		s.m.panics.Add(1)
		r = jobResult{err: fmt.Errorf("server: internal: job execution panicked: %v", p)}
		if perr, ok := p.(error); ok {
			r.err = fmt.Errorf("server: internal: job execution panicked: %w", perr)
		}
	}()
	level, scale := s.lc.levelScale()
	r = jobResult{level: level, scale: scale}
	switch j.kind {
	case jobCompress:
		// Contract floor: a floored tenant never compresses above its cap.
		if cap, ok := s.cfg.QualityFloors[j.tenant]; ok {
			r.scale = min(scale, cap)
		}
		r.archive, r.stats, r.err = s.compress(j, r.scale)
	case jobDecompress:
		r.field, r.err = j.cf.Decompress(j.ctx)
	case jobCalibrate:
		r.cal, r.err = s.drv.Engine().Calibrate(j.ctx, j.data, s.calOpts)
	}
	return r
}

// stepKey namespaces a field per tenant in the pipeline driver, so tenants
// get independent calibration state (and cannot collide on field names).
// The separator is rejected in tenant and field names at the HTTP
// boundary.
func stepKey(tenant, field string) string { return tenant + "\x1f" + field }

// compress runs one field as a one-field pipeline step at the given budget
// scale and appends it to the attached archive. The step runs under the
// server's context, not the request's: Close cancels it, and a client's
// own cancellation was honored while the job was queued.
func (s *Server) compress(j *job, scale float64) ([]byte, *pipeline.FieldStats, error) {
	key := stepKey(j.tenant, j.field)
	res, err := s.drv.StepCompressed(s.baseCtx, map[string]*grid.Field3D{key: j.data}, pipeline.StepOptions{BudgetScale: scale})
	if res != nil && res.Errs[key] != nil {
		err = res.Errs[key]
	}
	if err != nil {
		return nil, nil, err
	}
	s.archiveStep(res.Fields)
	return res.Fields[key].Bytes(), &res.Stats.Fields[0], nil
}

// finish delivers a result, records its latency with the load controller,
// and updates the served/failed accounting.
func (s *Server) finish(j *job, r jobResult) {
	s.lc.observe(s.now().Sub(j.queued))
	if r.err != nil {
		s.m.failed.Add(1)
	} else {
		s.m.served.Add(1)
		s.m.cells.Add(uint64(j.cost))
		s.m.bytesOut.Add(uint64(len(r.archive)))
	}
	j.done <- r
}

// drainPending answers every still-queued job after shutdown.
func (s *Server) drainPending() {
	s.mu.Lock()
	var pending []*job
	for _, tq := range s.order {
		pending = append(pending, tq.jobs...)
		tq.jobs = nil
	}
	s.queued = 0
	s.mu.Unlock()
	for _, j := range pending {
		s.m.failed.Add(1)
		j.done <- jobResult{err: fmt.Errorf("server: shutting down: %w", apierr.ErrOverloaded)}
	}
}
