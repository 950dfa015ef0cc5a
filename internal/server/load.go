package server

import (
	"math"
	"sort"
	"sync"
	"time"
)

// AdaptConfig tunes the load-driven rate controller: the service's answer
// to pressure that is *not* data drift. The streaming driver already
// re-fits rate models when the data moves; this controller reacts to the
// machine instead — queue depth and per-request latency against an SLO —
// by stepping every tenant's error-bound budget up (coarser, cheaper
// compression) while overloaded and back down to the configured quality
// when pressure clears. Discrete levels with a holdoff between changes
// keep it from oscillating on noisy latency samples.
type AdaptConfig struct {
	// Enabled turns the controller on. Off (the default) pins the budget
	// scale at 1: the service compresses at configured quality no matter
	// the load.
	Enabled bool
	// MaxLevel bounds how many steps the controller may take (default 4).
	MaxLevel int
	// EBStep is the per-level budget multiplier (default 2, also for any
	// value ≤ 1; NaN and +Inf are rejected): at level L every budget is
	// scaled by EBStep^L.
	EBStep float64
	// LatencySLO is the p99 request-latency target (default 250ms).
	// Sustained p99 above it steps the level up.
	LatencySLO time.Duration
	// HighQueue is the total queued-request depth that also counts as
	// pressure (default: the per-tenant queue depth, i.e. one full queue).
	HighQueue int
	// LowQueue is the depth the queue must fall to before stepping back
	// toward full quality (default HighQueue/8, at least 1).
	LowQueue int
	// Holdoff is the minimum time between level changes (default 250ms) —
	// the hysteresis that lets one change take effect before the next.
	Holdoff time.Duration
	// Window is the latency-sample ring size percentiles are computed
	// over (default 256).
	Window int
}

func (c AdaptConfig) withDefaults() AdaptConfig {
	if c.MaxLevel <= 0 {
		c.MaxLevel = 4
	}
	if c.EBStep <= 1 {
		c.EBStep = 2
	}
	if c.LatencySLO <= 0 {
		c.LatencySLO = 250 * time.Millisecond
	}
	if c.LowQueue <= 0 {
		c.LowQueue = c.HighQueue / 8
		if c.LowQueue < 1 {
			c.LowQueue = 1
		}
	}
	if c.Holdoff <= 0 {
		c.Holdoff = 250 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	return c
}

// minAdaptSamples is how many latency observations the controller needs
// since the last level change before it trusts the p99; below this only
// queue depth can move the level (latency of a near-empty window is
// dominated by whichever requests happened to land in it).
const minAdaptSamples = 16

// loadController holds the adaptation state. The clock is injected so the
// holdoff/hysteresis logic is unit-testable without sleeping.
type loadController struct {
	cfg AdaptConfig
	now func() time.Time

	mu         sync.Mutex
	level      int
	lastChange time.Time
	ring       []time.Duration
	next       int // ring write cursor
	count      int // samples since last level change, up to len(ring)
	ups, downs uint64
}

func newLoadController(cfg AdaptConfig, now func() time.Time) *loadController {
	cfg = cfg.withDefaults()
	return &loadController{cfg: cfg, now: now, ring: make([]time.Duration, cfg.Window), lastChange: now()}
}

// observe records one completed request's queue-to-response latency.
func (lc *loadController) observe(d time.Duration) {
	lc.mu.Lock()
	lc.ring[lc.next] = d
	lc.next = (lc.next + 1) % len(lc.ring)
	if lc.count < len(lc.ring) {
		lc.count++
	}
	lc.mu.Unlock()
}

// p99Locked computes the window's p99 (and p50) over the valid samples.
func (lc *loadController) percentilesLocked() (p50, p99 time.Duration) {
	if lc.count == 0 {
		return 0, 0
	}
	s := make([]time.Duration, lc.count)
	copy(s, lc.ring[:lc.count])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(s)-1))
		return s[i]
	}
	return at(0.50), at(0.99)
}

// adjust runs one control decision against the current total queue depth.
// Called by a worker before it runs each job, so a decision is made about
// as often as work is started — no dedicated ticker.
func (lc *loadController) adjust(queueDepth int) {
	if !lc.cfg.Enabled {
		return
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	now := lc.now()
	if now.Sub(lc.lastChange) < lc.cfg.Holdoff {
		return
	}
	_, p99 := lc.percentilesLocked()
	latencyHot := lc.count >= minAdaptSamples && p99 > lc.cfg.LatencySLO
	// Stepping down needs positive evidence of calm, not just an empty
	// window: the window resets on every level change, and treating the
	// first post-change decisions as calm would undo each step-up
	// immediately (observed as up/down oscillation under steady pressure).
	latencyCool := lc.count >= minAdaptSamples && p99 <= lc.cfg.LatencySLO/2
	switch {
	case (queueDepth >= lc.cfg.HighQueue || latencyHot) && lc.level < lc.cfg.MaxLevel:
		lc.level++
		lc.ups++
	case queueDepth <= lc.cfg.LowQueue && latencyCool && lc.level > 0:
		lc.level--
		lc.downs++
	default:
		return
	}
	// The window now mixes latencies from two operating points; restart it
	// so the next decision is made on post-change evidence only.
	lc.lastChange = now
	lc.next, lc.count = 0, 0
}

// levelScale returns the current level and its budget multiplier.
func (lc *loadController) levelScale() (int, float64) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.level, math.Pow(lc.cfg.EBStep, float64(lc.level))
}

// snapshot reports the controller state for the stats endpoint.
func (lc *loadController) snapshot() (level int, scale float64, p50, p99 time.Duration, ups, downs uint64) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	p50, p99 = lc.percentilesLocked()
	return lc.level, math.Pow(lc.cfg.EBStep, float64(lc.level)), p50, p99, lc.ups, lc.downs
}
