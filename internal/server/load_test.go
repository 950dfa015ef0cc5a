package server

import (
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for deterministic holdoff tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestLoadControllerDisabledStaysAtFullQuality(t *testing.T) {
	clk := newFakeClock()
	lc := newLoadController(AdaptConfig{Enabled: false, HighQueue: 1}, clk.now)
	for i := 0; i < 100; i++ {
		lc.observe(time.Second)
		clk.advance(time.Second)
		lc.adjust(1000)
	}
	if level, scale := lc.levelScale(); level != 0 || scale != 1 {
		t.Fatalf("disabled controller moved: level %d scale %g", level, scale)
	}
}

func TestLoadControllerStepsUpOnQueuePressure(t *testing.T) {
	clk := newFakeClock()
	cfg := AdaptConfig{Enabled: true, MaxLevel: 3, EBStep: 2, HighQueue: 10, Holdoff: time.Second}
	lc := newLoadController(cfg, clk.now)

	// Within the holdoff nothing moves, no matter the pressure.
	lc.adjust(1000)
	if level, _ := lc.levelScale(); level != 0 {
		t.Fatalf("stepped inside holdoff: level %d", level)
	}

	// One step per holdoff window, up to MaxLevel.
	for want := 1; want <= 4; want++ {
		clk.advance(cfg.Holdoff)
		lc.adjust(1000)
		level, scale := lc.levelScale()
		wantLevel := want
		if wantLevel > cfg.MaxLevel {
			wantLevel = cfg.MaxLevel
		}
		if level != wantLevel {
			t.Fatalf("after %d windows: level %d, want %d", want, level, wantLevel)
		}
		wantScale := 1.0
		for i := 0; i < wantLevel; i++ {
			wantScale *= cfg.EBStep
		}
		if scale != wantScale {
			t.Fatalf("level %d scale %g, want %g", level, scale, wantScale)
		}
	}
}

func TestLoadControllerStepsUpOnLatencySLO(t *testing.T) {
	clk := newFakeClock()
	cfg := AdaptConfig{Enabled: true, LatencySLO: 100 * time.Millisecond, HighQueue: 1 << 30, Holdoff: time.Second}
	lc := newLoadController(cfg, clk.now)

	// Too few samples: the p99 is not trusted yet.
	for i := 0; i < minAdaptSamples-1; i++ {
		lc.observe(time.Second)
	}
	clk.advance(cfg.Holdoff)
	lc.adjust(0)
	if level, _ := lc.levelScale(); level != 0 {
		t.Fatalf("stepped on %d samples", minAdaptSamples-1)
	}
	lc.observe(time.Second)
	lc.adjust(0)
	if level, _ := lc.levelScale(); level != 1 {
		t.Fatalf("p99 10× over SLO with %d samples: level %d, want 1", minAdaptSamples, level)
	}
}

func TestLoadControllerStepsBackDownWhenCalm(t *testing.T) {
	clk := newFakeClock()
	// Window == minAdaptSamples so a full window of fresh samples is
	// exactly one refill; MaxLevel 1 so hot latency cannot mask a wrong
	// step-down as a step-up.
	cfg := AdaptConfig{
		Enabled: true, MaxLevel: 1, LatencySLO: 100 * time.Millisecond,
		HighQueue: 10, LowQueue: 2, Holdoff: time.Second, Window: minAdaptSamples,
	}
	lc := newLoadController(cfg, clk.now)

	clk.advance(cfg.Holdoff)
	lc.adjust(100) // queue pressure: up to 1
	if level, _ := lc.levelScale(); level != 1 {
		t.Fatalf("setup: level %d, want 1", level)
	}

	// Queue low but latency still hot: stay.
	for i := 0; i < minAdaptSamples; i++ {
		lc.observe(time.Second)
	}
	clk.advance(cfg.Holdoff)
	lc.adjust(0)
	if level, _ := lc.levelScale(); level != 1 {
		t.Fatalf("stepped down while p99 hot: level %d", level)
	}

	// An empty window is not calm either — the window resets on change,
	// and pressure evidence must be re-earned before stepping back.
	lc.mu.Lock()
	lc.next, lc.count = 0, 0
	lc.mu.Unlock()
	clk.advance(cfg.Holdoff)
	lc.adjust(0)
	if level, _ := lc.levelScale(); level != 1 {
		t.Fatalf("stepped down on an empty window: level %d", level)
	}

	// Queue low and a full window well under SLO: step down.
	for i := 0; i < minAdaptSamples; i++ {
		lc.observe(time.Millisecond)
	}
	clk.advance(cfg.Holdoff)
	lc.adjust(0)
	if level, _ := lc.levelScale(); level != 0 {
		t.Fatalf("calm but did not step down: level %d", level)
	}
	_, _, _, _, ups, downs := lc.snapshot()
	if ups != 1 || downs != 1 {
		t.Fatalf("ups/downs = %d/%d, want 1/1", ups, downs)
	}
}
