package pipeline

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/nyx"
	"repro/internal/parallel"
)

// chaosTrigger is a cell value no synthetic field produces; the chaos
// codec detonates on any partition containing it, modeling a codec bug
// that only specific data tickles.
const chaosTrigger = float32(-1.2345678e18)

var errChaos = &chaosPanic{}

type chaosPanic struct{}

func (*chaosPanic) Error() string { return "chaos: injected codec panic" }

// chaosCodec wraps the real sz backend and panics — inside whatever pool
// goroutine the partition fan-out put it on — when the input contains the
// trigger value.
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
		if err := codec.Register(chaosCodec{id: "chaos-pipe", inner: inner}); err != nil {
			t.Fatal(err)
		}
	})
	return "chaos-pipe"
}

func faultField(t *testing.T, n int) *grid.Field3D {
	t.Helper()
	snap, err := nyx.Generate(nyx.Params{N: n, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	f, err := snap.Field(nyx.FieldBaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestStepIsolatesCodecPanicPerField(t *testing.T) {
	id := registerChaos(t)
	good := faultField(t, 16)
	bad := faultField(t, 16)
	bad.Data[0] = chaosTrigger

	drv, err := New(core.Config{PartitionDim: 8, Codec: id}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := drv.StepCompressed(context.Background(), map[string]*grid.Field3D{
		"good": good,
		"bad":  bad,
	}, StepOptions{})
	if err != nil {
		t.Fatalf("step error = %v; a per-field panic must not fail the step", err)
	}
	if res.Fields["good"] == nil {
		t.Error("the field beside the panicking one lost its result")
	}
	ferr := res.Errs["bad"]
	if ferr == nil {
		t.Fatal("panicking field reported no error")
	}
	if !strings.Contains(ferr.Error(), "panic during compression") {
		t.Errorf("field error %v does not identify the panic", ferr)
	}
	// The panic detonated inside a partition-fan-out worker; the funnel
	// must keep the original value in the unwrap chain so chaos tests can
	// classify what blew up.
	if !errors.Is(ferr, errChaos) {
		t.Errorf("errors.Is through the panic funnel failed: %v", ferr)
	}
	var pe *parallel.PanicError
	if !errors.As(ferr, &pe) {
		t.Logf("panic surfaced on the fan-out caller directly (no pool helper): %v", ferr)
	}

	// The driver keeps working for the field that panicked once its data
	// is clean again — no poisoned per-field state.
	bad.Data[0] = 1
	res, err = drv.StepCompressed(context.Background(), map[string]*grid.Field3D{"bad": bad}, StepOptions{})
	if err != nil || res.Errs["bad"] != nil || res.Fields["bad"] == nil {
		t.Errorf("field did not recover after the panicking step: err=%v fieldErr=%v", err, res.Errs["bad"])
	}
}
