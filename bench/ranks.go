package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/adaptive"
	"repro/internal/mpi"
)

// ranks-tcp: two ranks of one world joined over loopback TCP, each running
// RunRank on the same deterministic stream into its own shard file, then
// MergeShards. The op is one committed step; it is the only workload where
// the collectives and the commit barrier sit on the blocking path.

const (
	ranksWorld = 2
	ranksBrick = 16
)

type ranksEnv struct {
	steps  []map[string]*adaptive.Field
	avgEBs map[string]float64
	coord  *adaptive.Coordinator
	ts     [ranksWorld]*adaptive.NetTransport
	dir    string
}

func setupRanks(cfg runConfig) (*ranksEnv, error) {
	steps, err := materialise(adaptive.SynthStreamParams{
		Base:  adaptive.SynthParams{N: cfg.sz.RanksN, Seed: cfg.seed},
		Steps: cfg.sz.RanksSteps, DriftPerStep: 0.01, Fields: adaptive.FieldNames()[:cfg.sz.RanksFields],
	})
	if err != nil {
		return nil, err
	}
	e := &ranksEnv{steps: steps, avgEBs: map[string]float64{}}
	// RunRank takes absolute budgets (ranks must not negotiate one): a
	// tenth of each field's mean |value|, the pipeline's relative default.
	for name, f := range steps[0] {
		var sum float64
		for _, v := range f.Data {
			sum += math.Abs(float64(v))
		}
		e.avgEBs[name] = 0.1 * sum / float64(len(f.Data))
	}
	// ... except the density, whose budget is the power-spectrum criterion's.
	if e.avgEBs[adaptive.FieldBaryonDensity], err = densityBudget(steps[0][adaptive.FieldBaryonDensity]); err != nil {
		return nil, err
	}
	if e.dir, err = os.MkdirTemp(cfg.tmp, "ranks-*"); err != nil {
		return nil, err
	}
	if e.coord, err = adaptive.ListenCoordinator("127.0.0.1:0", ranksWorld, adaptive.NetConfig{}); err != nil {
		e.close()
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, ranksWorld)
	for r := range e.ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.ts[r], errs[r] = adaptive.JoinWorld(e.coord.Addr(), r, ranksWorld, adaptive.NetConfig{})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.close()
			return nil, err
		}
	}
	// Warm-up: a short complete run, so that connections, pools and the
	// page cache are hot. Its calibration dies with it — RunRank keeps none
	// across calls — so the measured run calibrates again, on steps the
	// window leaves out.
	warm := cfg.sz.RanksWarm
	run, err := e.run(context.Background(), func(k int) bool { return k < warm }, nil, nil)
	run.discard()
	if err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return e, nil
}

func (e *ranksEnv) close() {
	for _, t := range e.ts {
		if t != nil {
			t.Close()
		}
	}
	if e.coord != nil {
		e.coord.Close()
	}
	os.RemoveAll(e.dir)
}

// ranksRun is the shards one RunRank pass left behind.
type ranksRun struct {
	shards []*os.File
	stats  [ranksWorld]*adaptive.RankRunStats
}

func (r *ranksRun) discard() {
	for _, f := range r.shards {
		f.Close()
		os.Remove(f.Name())
	}
}

// run drives every rank through RunRank once. more(k) says whether step k
// exists; both ranks must get the same answer. wrap decorates a rank's
// transport (traced run); onCommit observes rank 0.
func (e *ranksEnv) run(ctx context.Context, more func(k int) bool,
	wrap func(rank int, t adaptive.Transport) adaptive.Transport, onCommit func(step int)) (*ranksRun, error) {
	run := &ranksRun{}
	for r := 0; r < ranksWorld; r++ {
		f, err := os.CreateTemp(e.dir, fmt.Sprintf("shard-%d-*.acs", r))
		if err != nil {
			return run, err
		}
		run.shards = append(run.shards, f)
	}
	var wg sync.WaitGroup
	errs := make([]error, ranksWorld)
	for r := 0; r < ranksWorld; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t adaptive.Transport = e.ts[r]
			if wrap != nil {
				t = wrap(r, t)
			}
			rc := adaptive.RankConfig{Engine: adaptive.EngineConfig{PartitionDim: ranksBrick}, AvgEBs: e.avgEBs}
			if r == 0 && onCommit != nil {
				rc.OnCommit = func(step, _ int) { onCommit(step) }
			}
			run.stats[r], errs[r] = adaptive.RunRank(ctx, t, e.source(more), run.shards[r], rc)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return run, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return run, nil
}

// source replays the materialised steps ping-pong while more allows.
func (e *ranksEnv) source(more func(k int) bool) adaptive.Source {
	k := 0
	return adaptive.SourceFunc(func() (map[string]*adaptive.Field, error) {
		if !more(k) {
			return nil, io.EOF
		}
		k++
		return e.steps[pingPong(k-1, len(e.steps))], nil
	})
}

// stepOracle answers "does step k exist" identically for every rank: the
// first rank to ask decides, the others read the decision. The window opens
// when step warm is first asked for, which is right after the commit
// barrier of the last warm-up step.
type stepOracle struct {
	mu      sync.Mutex
	decided []bool
	warm    int
	open    func() *window
	w       *window
}

func (o *stepOracle) more(k int) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	for j := len(o.decided); j <= k; j++ {
		d := true
		if j >= o.warm {
			if o.w == nil {
				o.w = o.open()
			}
			d = o.w.more(j - o.warm)
		}
		o.decided = append(o.decided, d)
	}
	return o.decided[k]
}

// commitLog timestamps rank 0's commits.
type commitLog struct {
	mu sync.Mutex
	at []time.Time
}

func (c *commitLog) add() {
	c.mu.Lock()
	c.at = append(c.at, time.Now())
	c.mu.Unlock()
}

// stepMs are the commit-to-commit times after the warm-up steps.
func (c *commitLog) stepMs(warm int) []float64 {
	var out []float64
	for k := warm; k < len(c.at); k++ {
		out = append(out, float64(c.at[k].Sub(c.at[k-1]))/1e6)
	}
	return out
}

// endsS are the commit times after the warm-up steps, in seconds from the
// last warm-up commit.
func (c *commitLog) endsS(warm int) []float64 {
	var out []float64
	for k := warm; k < len(c.at); k++ {
		out = append(out, c.at[k].Sub(c.at[warm-1]).Seconds())
	}
	return out
}

func runRanks(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	env, times, err := repeatSetup(cfg.sz, func() (*ranksEnv, error) { return setupRanks(cfg) }, (*ranksEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	o.setup = times
	ctx := context.Background()
	warm := cfg.sz.RanksWarm
	cycle := 2 * (len(env.steps) - 1)
	share := 1.0
	if cfg.trace {
		share = 0.5
	}

	var a0 uint64
	oracle := &stepOracle{warm: warm, open: func() *window { a0 = totalAlloc(); return cfg.window(share, cycle, 1) }}
	commits := &commitLog{}
	run, err := env.run(ctx, oracle.more, nil, func(int) { commits.add() })
	defer run.discard()
	if err != nil {
		return nil, err
	}
	o.allocs = totalAlloc() - a0
	o.lats = commits.stepMs(warm)
	o.ends = commits.endsS(warm)
	o.attempted = len(o.lats)
	o.counts["committed_steps"] = len(o.lats)
	for r, st := range run.stats {
		if st.Retries != 0 || st.FinalEpoch != 0 {
			o.fail("rank %d saw %d retries and ended in epoch %d on a healthy world", r, st.Retries, st.FinalEpoch)
		}
	}

	merged, err := env.merge(run, o)
	if err != nil {
		return nil, err
	}
	defer func() { merged.Close(); os.Remove(merged.Name()) }()
	oneRankOpsPerS := env.verify(ctx, cfg, o, merged, warm, cycle)
	o.layer["pipeline.rank_speedup"] = sliceRate(o.ends) / oneRankOpsPerS

	if cfg.trace {
		if err := env.tracedWindow(ctx, cfg, o, warm); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// merge reassembles the shards into one stream file and times it.
func (e *ranksEnv) merge(run *ranksRun, o *outcome) (*os.File, error) {
	var in []adaptive.ShardInput
	for _, f := range run.shards {
		fi, err := f.Stat()
		if err != nil {
			return nil, err
		}
		in = append(in, adaptive.ShardInput{R: f, Size: fi.Size()})
	}
	merged, err := os.CreateTemp(e.dir, "merged-*.acs")
	if err != nil {
		return nil, err
	}
	n := e.steps[0][adaptive.FieldBaryonDensity].Nx / ranksBrick
	t0 := time.Now()
	rep, err := adaptive.MergeShards(merged, in, n*n*n)
	o.layer["core.merge_shards_ms"] = float64(time.Since(t0)) / 1e6
	if err != nil {
		merged.Close()
		os.Remove(merged.Name())
		return nil, fmt.Errorf("merge: %w", err)
	}
	if want := run.stats[0].Steps; rep.Steps != want {
		o.fail("merged %d steps, %d were committed", rep.Steps, want)
	}
	return merged, nil
}

// verify holds the merged archive against a single-process run of the same
// source (byte-identical, step for step), decodes its last steps against the
// bounds stored in the SZ frames, and applies the power-spectrum criterion.
// It returns the one-rank world's steps per second, the base of rank_speedup.
func (e *ranksEnv) verify(ctx context.Context, cfg runConfig, o *outcome, merged *os.File, warm, cycle int) float64 {
	fi, err := merged.Stat()
	if err != nil {
		o.fail("stat merged: %v", err)
		return math.NaN()
	}
	sr, err := adaptive.OpenStream(merged, fi.Size())
	if err != nil {
		o.fail("merged archive does not reopen: %v", err)
		return math.NaN()
	}
	rawStep := int64(0)
	for _, f := range e.steps[0] {
		rawStep += 4 * int64(len(f.Data))
	}
	for s := warm; s < warm+cycle && s < sr.Steps(); s++ {
		sec, err := sr.StepSection(s)
		if err != nil {
			o.fail("step %d section: %v", s, err)
			continue
		}
		o.rawBytes += rawStep
		o.outBytes += sec.Size()
	}

	// Single-process reference: a one-rank in-process world, same source.
	ref := cfg.sz.RanksRef
	var single bytes.Buffer
	refCommits := &commitLog{}
	o.attempted++
	err = adaptive.RunWorld(1, func(t adaptive.Transport) error {
		var shard bytes.Buffer
		_, err := adaptive.RunRank(ctx, t, e.source(func(k int) bool { return k < ref }), &shard, adaptive.RankConfig{
			Engine: adaptive.EngineConfig{PartitionDim: ranksBrick}, AvgEBs: e.avgEBs,
			OnCommit: func(int, int) { refCommits.add() },
		})
		if err != nil {
			return err
		}
		n := e.steps[0][adaptive.FieldBaryonDensity].Nx / ranksBrick
		_, err = adaptive.MergeShards(&single, []adaptive.ShardInput{{R: bytes.NewReader(shard.Bytes()), Size: int64(shard.Len())}}, n*n*n)
		return err
	})
	oneRank := math.NaN()
	if err != nil {
		o.fail("single-process reference: %v", err)
	} else if rr, err := adaptive.OpenStream(bytes.NewReader(single.Bytes()), int64(single.Len())); err != nil {
		o.fail("reference archive does not reopen: %v", err)
	} else {
		for s := 0; s < ref; s++ {
			if err := sameStep(sr, rr, s); err != nil {
				o.fail("merged step %d differs from the single-process run: %v", s, err)
				break
			}
		}
		if ms := refCommits.stepMs(1); len(ms) > 0 {
			oneRank = 1000 / mean(ms)
		}
	}

	o.decodeRoundFields = len(e.steps[0]) // a round is one merged step
	runtime.GC()                          // a short window should not inherit the timed window's heap
	for s := max(sr.Steps()-cfg.sz.RanksDecode, 0); s < sr.Steps(); s++ {
		failed := o.failed
		t0 := time.Now()
		fields, err := sr.ReadStep(s)
		if err != nil {
			o.fail("read merged step %d: %v", s, err)
			continue
		}
		if len(fields) != o.decodeRoundFields {
			o.fail("merged step %d holds %d fields, the source has %d", s, len(fields), o.decodeRoundFields)
		}
		for name, cf := range fields {
			o.attempted++
			recon, err := cf.Decompress(ctx)
			if err == nil {
				err = checkBounds(e.steps[pingPong(s, len(e.steps))][name], recon, ranksBrick, cf.PartitionEBs())
			}
			if err != nil {
				o.fail("merged step %d field %s: %v", s, name, err)
			}
		}
		if o.failed == failed {
			o.decodeRoundMs = append(o.decodeRoundMs, float64(time.Since(t0))/1e6)
		}
	}

	if s := warm + cycle - 1; s < sr.Steps() {
		checkSpectrum(ctx, o, sr, s, e.steps[pingPong(s, len(e.steps))][adaptive.FieldBaryonDensity])
	}
	return oneRank
}

// sameStep compares one step's raw block in two streams.
func sameStep(a, b *adaptive.StreamReader, s int) error {
	sa, err := a.StepSection(s)
	if err != nil {
		return err
	}
	sb, err := b.StepSection(s)
	if err != nil {
		return err
	}
	ba, err := io.ReadAll(sa)
	if err != nil {
		return err
	}
	bb, err := io.ReadAll(sb)
	if err != nil {
		return err
	}
	if !bytes.Equal(ba, bb) {
		return fmt.Errorf("%d bytes vs %d bytes, contents differ", len(ba), len(bb))
	}
	return nil
}

// timedTransport is the tracing decorator on the Transport interface the
// program already accepts: every collective and point-to-point call is
// timed, and on rank 0 recorded as a span under the current step's span.
type timedTransport struct {
	adaptive.Transport
	tr     *tracer // nil on ranks whose spans are not kept
	parent *atomic.Int64
	waitNs atomic.Int64
	calls  atomic.Int64
}

func (t *timedTransport) timed(name string, call func() error) error {
	id := t.tr.begin(name, 0, int(t.parent.Load()))
	t0 := time.Now()
	err := call()
	t.waitNs.Add(int64(time.Since(t0)))
	t.calls.Add(1)
	t.tr.end(id)
	return err
}

func (t *timedTransport) Barrier() error {
	return t.timed("mpinet.barrier", t.Transport.Barrier)
}

func (t *timedTransport) Allreduce(v float64, op mpi.Op) (out float64, err error) {
	err = t.timed("mpinet.allreduce", func() error { out, err = t.Transport.Allreduce(v, op); return err })
	return out, err
}

func (t *timedTransport) AllreduceSlice(v []float64, op mpi.Op) (out []float64, err error) {
	err = t.timed("mpinet.allreduce_slice", func() error { out, err = t.Transport.AllreduceSlice(v, op); return err })
	return out, err
}

func (t *timedTransport) Allgather(v float64) (out []float64, err error) {
	err = t.timed("mpinet.allgather", func() error { out, err = t.Transport.Allgather(v); return err })
	return out, err
}

func (t *timedTransport) AllgatherSlice(v []float64) (out []float64, err error) {
	err = t.timed("mpinet.allgather_slice", func() error { out, err = t.Transport.AllgatherSlice(v); return err })
	return out, err
}

func (t *timedTransport) Bcast(v float64, root int) (out float64, err error) {
	err = t.timed("mpinet.bcast", func() error { out, err = t.Transport.Bcast(v, root); return err })
	return out, err
}

func (t *timedTransport) Send(to int, data []float64) error {
	return t.timed("mpinet.send", func() error { return t.Transport.Send(to, data) })
}

func (t *timedTransport) Recv(from int) (out []float64, err error) {
	err = t.timed("mpinet.recv", func() error { out, err = t.Transport.Recv(from); return err })
	return out, err
}

// tracedWindow runs the ranks again with the timing decorator on both
// transports and splits rank 0's step time into waiting and computing.
func (e *ranksEnv) tracedWindow(ctx context.Context, cfg runConfig, o *outcome, warm int) error {
	tr := newTracer()
	var parent atomic.Int64
	parent.Store(int64(tr.begin("rank.step", 0, -1)))
	var rank0 *timedTransport
	wrap := func(rank int, t adaptive.Transport) adaptive.Transport {
		tt := &timedTransport{Transport: t, parent: &parent}
		if rank == 0 {
			tt.tr, rank0 = tr, tt
		}
		return tt
	}
	oracle := &stepOracle{warm: warm, open: func() *window { return cfg.window(0.5, 1, 1) }}
	commits := &commitLog{}
	var waitBase, callsBase int64
	run, err := e.run(ctx, oracle.more, wrap, func(step int) {
		commits.add()
		tr.end(int(parent.Load()))
		parent.Store(int64(tr.begin("rank.step", step+1, -1)))
		if step == warm-1 {
			waitBase, callsBase = rank0.waitNs.Load(), rank0.calls.Load()
		}
	})
	run.discard()
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	// The exit barrier and close fall after the last commit; snapshot the
	// counters' window share from the commit log instead.
	tr.end(int(parent.Load()))
	stepMs := commits.stepMs(warm)
	steps := float64(len(stepMs))
	wall := commits.at[len(commits.at)-1].Sub(commits.at[warm-1]).Seconds()
	// One barrier after the last commit belongs to no step.
	exitBarrier := tr.durationsMs("mpinet.barrier")
	waitMs := float64(rank0.waitNs.Load()-waitBase)/1e6 - exitBarrier[len(exitBarrier)-1]
	l := o.layer
	l["mpinet.collectives_per_step"] = float64(rank0.calls.Load()-callsBase-1) / steps
	l["mpinet.wait_ms_per_step"] = waitMs / steps
	l["mpinet.wait_share"] = waitMs / (1000 * wall)
	l["pipeline.rank_compute_ms_per_step"] = mean(stepMs) - waitMs/steps
	l["pipeline.trace_overhead_pct"] = 100 * (sliceRate(o.ends)/sliceRate(commits.endsS(warm)) - 1)
	o.counts["traced_steps"] = len(stepMs)
	o.spans = tr
	return nil
}
