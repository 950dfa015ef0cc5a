package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apierr"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/nyx"
	"repro/internal/optimizer"
	"repro/internal/stats"
)

// rankSteps builds the deterministic 3-step, 2-field source every rank (and
// the golden single-process run) consumes in the failure tests.
func rankSteps() []map[string]*grid.Field3D {
	mk := func(seed int) *grid.Field3D {
		f := grid.NewCube(16)
		for i := range f.Data {
			x, y, z := f.Coords(i)
			f.Data[i] = float32(seed) * float32(x+2*y+3*z+1)
		}
		return f
	}
	var steps []map[string]*grid.Field3D
	for s := 0; s < 3; s++ {
		steps = append(steps, map[string]*grid.Field3D{
			"rho":  mk(s + 1),
			"temp": mk(s + 7),
		})
	}
	return steps
}

var rankCfg = RankConfig{
	Engine: core.Config{PartitionDim: 8},
	AvgEB:  2.0,
	AvgEBs: map[string]float64{"temp": 4.0},
}

// driverStream is the single-process reference: Driver.Run over the same
// source, budgets, halo constraints and schedule, into one plain stream.
func driverStream(t *testing.T, steps []map[string]*grid.Field3D, cfg RankConfig, opt Options) ([]byte, *RunStats) {
	t.Helper()
	var buf bytes.Buffer
	sw, err := core.NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	opt.Writer = sw
	drv, err := rankDriver(nil, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	run, err := drv.Run(context.Background(), FromSnapshots(steps))
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), run
}

// rankDriver builds a Driver the way RunRank does, with the recalibration
// schedule under test in opt.
func rankDriver(tr mpi.Transport, cfg RankConfig, opt Options) (*Driver, error) {
	eng, err := core.NewEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	return newDriver(eng, opt, tr, cfg.Halo, cfg.budget)
}

func mergeRankShards(t *testing.T, nParts int, shards ...[]byte) ([]byte, *core.MergeReport) {
	t.Helper()
	var in []core.ShardInput
	for _, b := range shards {
		in = append(in, core.ShardInput{R: bytes.NewReader(b), Size: int64(len(b))})
	}
	var out bytes.Buffer
	rep, err := core.MergeShards(&out, in, nParts)
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), rep
}

// tcpWorld starts a coordinator plus per-rank transports with automatic
// tickers off (liveness is test-driven) and generous message timeouts.
func tcpWorld(t *testing.T, size int, dial map[int]func(network, addr string) (net.Conn, error)) (*mpinet.Coordinator, []*mpinet.Transport) {
	t.Helper()
	cfg := mpinet.Config{HeartbeatInterval: -1, HeartbeatTimeout: -1, MessageTimeout: 30 * time.Second}
	coord, err := mpinet.Listen("127.0.0.1:0", size, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	ts := make([]*mpinet.Transport, size)
	for r := 0; r < size; r++ {
		rcfg := cfg
		if d, ok := dial[r]; ok {
			rcfg.Dial = d
		}
		tr, err := mpinet.Join(coord.Addr(), r, size, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		ts[r] = tr
	}
	return coord, ts
}

// runWorld drives every rank of a healthy world through the rank loop and returns
// the merged archive and rank 0's stats. tcp selects loopback TCP transports
// over the in-process world.
func runWorld(t *testing.T, ranks int, tcp bool, steps []map[string]*grid.Field3D, nParts int, cfg RankConfig, opt Options) ([]byte, *RankRunStats) {
	t.Helper()
	shards := make([]bytes.Buffer, ranks)
	stats := make([]*RankRunStats, ranks)
	rank := func(tr mpi.Transport) (err error) {
		r := tr.Rank()
		drv, err := rankDriver(tr, cfg, opt)
		if err != nil {
			return err
		}
		stats[r], err = drv.runRank(context.Background(), tr, FromSnapshots(steps), &shards[r], cfg)
		return err
	}
	if tcp {
		_, ts := tcpWorld(t, ranks, nil)
		errs := make([]error, ranks)
		var wg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[r] = rank(ts[r])
			}()
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
	} else if err := mpi.Run(ranks, func(c *mpi.Comm) error { return rank(c.Transport()) }); err != nil {
		t.Fatal(err)
	}
	var raw [][]byte
	for r := range shards {
		if st := stats[r]; st.Steps != len(steps) || st.Retries != 0 || st.FinalEpoch != 0 {
			t.Fatalf("rank %d stats %+v, want %d clean steps", r, *st, len(steps))
		}
		raw = append(raw, shards[r].Bytes())
	}
	merged, rep := mergeRankShards(t, nParts, raw...)
	if rep.SalvagedShards != 0 || rep.DuplicateParts != 0 {
		t.Fatalf("healthy merge report %+v", *rep)
	}
	return merged, stats[0]
}

// TestRunRankMatchesDriver is the identity the package promises, as a
// differential property: whatever the world (in-process or TCP, 1 to 5
// ranks, sizes that do not divide the partition count), the halo budget and
// the recalibration policy, the merged shards are the archive Driver.Run
// writes in one process, byte for byte — over a source whose drift makes the
// drift-triggered schedule take both an O(1) correction and a real
// recalibration.
func TestRunRankMatchesDriver(t *testing.T) {
	steps := testSteps(t, 16, 6, nyx.FieldBaryonDensity, nyx.FieldVelocityX)
	const nParts = 8 // 16³ in 8³ bricks
	budget := func(name string) float64 {
		f := steps[0][name]
		var sum float64
		for _, v := range f.Data {
			sum += math.Abs(float64(v))
		}
		return 0.1 * sum / float64(f.Len())
	}
	base := RankConfig{
		Engine: core.Config{PartitionDim: 8},
		AvgEB:  budget(nyx.FieldVelocityX),
		AvgEBs: map[string]float64{nyx.FieldBaryonDensity: budget(nyx.FieldBaryonDensity)},
	}
	withHalo := base
	withHalo.Halo = map[string]*optimizer.HaloConstraint{
		// A threshold whose ±RefEB band a field this small populates, and
		// a budget tight enough that the Eq. 11 downscale bites.
		nyx.FieldBaryonDensity: {TBoundary: 2, RefEB: 1, MassBudget: 1e-3},
	}
	worlds := []struct {
		ranks int
		tcp   bool
	}{{1, false}, {2, false}, {3, false}, {5, false}, {2, true}, {3, true}}

	goldens := map[bool][]byte{}
	for _, policy := range []Policy{DriftTriggered, CalibrateOnce, CalibrateEveryStep} {
		for _, halo := range []bool{false, true} {
			cfg := base
			if halo {
				cfg = withHalo
			}
			opt := Options{Policy: policy, DriftThreshold: 0.1}
			golden, run := driverStream(t, steps, cfg, opt)
			if policy == DriftTriggered {
				goldens[halo] = golden
				if run.ModelCorrections == 0 || run.Recalibrations <= 2 {
					t.Fatalf("source too tame: %d corrections, %d calibrations for 2 fields — the schedule's branches are not all taken",
						run.ModelCorrections, run.Recalibrations)
				}
			}
			for _, w := range worlds {
				name := fmt.Sprintf("%v/halo=%v/ranks=%d/tcp=%v", policy, halo, w.ranks, w.tcp)
				merged, st := runWorld(t, w.ranks, w.tcp, steps, nParts, cfg, opt)
				if !bytes.Equal(merged, golden) {
					t.Errorf("%s: merged archive differs from Driver.Run's (%d vs %d bytes)", name, len(merged), len(golden))
				}
				// The protocol's cost, pinned: per step, one gather and one
				// byte sum for each of the two fields (a one-rank world
				// exchanges nothing) plus the commit barrier; one exit
				// barrier. The in-process world does not count barriers.
				var want int64
				if w.ranks > 1 {
					want = int64(len(steps) * 2 * 2)
				}
				if w.tcp {
					want += int64(len(steps) + 1)
				}
				if st.Collectives != want {
					t.Errorf("%s: rank 0 ran %d collectives, want %d", name, st.Collectives, want)
				}
				if !halo {
					assertMeanEB(t, name, merged, cfg)
				}
			}
		}
	}
	if bytes.Equal(goldens[false], goldens[true]) {
		t.Fatal("halo budget never bit: the halo and no-halo archives are identical")
	}
}

// assertMeanEB holds the paper's quality guarantee on a rank-path archive:
// mean(eb) over a field's partitions is its budget (Eq. 10), on every step.
func assertMeanEB(t *testing.T, what string, archive []byte, cfg RankConfig) {
	t.Helper()
	sr, err := core.OpenStream(bytes.NewReader(archive), int64(len(archive)))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < sr.Steps(); s++ {
		fields, err := sr.ReadStep(s)
		if err != nil {
			t.Fatal(err)
		}
		for name, cf := range fields {
			want := cfg.AvgEB
			if v, ok := cfg.AvgEBs[name]; ok {
				want = v
			}
			if got := stats.MeanOf(cf.PartitionEBs()); math.Abs(got-want) > 1e-9*want {
				t.Fatalf("%s: step %d field %s: mean(eb) = %v, budget %v", what, s, name, got, want)
			}
		}
	}
}

// TestStepStagesStateUntilCommit: an attempt that never commits leaves no
// trace in the Driver — no folded residual, no counted correction, no
// installed recalibration — so its retry decides and compresses exactly as
// the attempt did.
func TestStepStagesStateUntilCommit(t *testing.T) {
	steps := testSteps(t, 32, 6, nyx.FieldBaryonDensity)
	drv, err := New(core.Config{PartitionDim: 8}, Options{DriftThreshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	decisions := func(res *StepResult) FieldStats {
		fs := res.Stats.Fields[0]
		fs.CalibrateSeconds, fs.PlanSeconds, fs.CompressSeconds = 0, 0, 0
		return fs
	}
	reacted := false
	for s, snap := range steps {
		before := fieldState{}
		if cur := drv.state[nyx.FieldBaryonDensity]; cur != nil {
			before = *cur
		}
		attempt, err := drv.step(ctx, snap, StepOptions{})
		if err != nil || attempt.firstErr() != nil {
			t.Fatal(err, attempt.firstErr())
		}
		if cur := drv.state[nyx.FieldBaryonDensity]; (cur == nil) != (s == 0) || (cur != nil && *cur != before) {
			t.Fatalf("step %d: an uncommitted attempt changed the driver's state", s)
		}
		retry, err := drv.step(ctx, snap, StepOptions{})
		if err != nil || retry.firstErr() != nil {
			t.Fatal(err, retry.firstErr())
		}
		if a, r := decisions(attempt), decisions(retry); a != r {
			t.Fatalf("step %d: retry decided %+v, the attempt %+v", s, r, a)
		}
		if s > 0 && (decisions(retry).ModelCorrected || decisions(retry).Recalibrated) {
			reacted = true
		}
		drv.commit(retry)
		if cur := drv.state[nyx.FieldBaryonDensity]; cur == nil || *cur == before {
			t.Fatalf("step %d: commit installed nothing", s)
		}
	}
	if !reacted {
		t.Fatal("source too tame: no correction or recalibration was ever staged")
	}
}

// countingConn counts completed writes, like faultinject.Conn does.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.writes.Add(1)
	return n, err
}

// TestRunRankSurvivesRankDeath is the failure-path end-to-end, swept over
// every point of one step at which a rank can die: the victim's connection
// is cut right after its k-th frame (that frame is delivered, the next write
// finds the conn closed, like a kill -9), for every k from the commit of
// step 0 to the commit of step 1 — so before, between and after each of the
// step's collectives, commit barrier included. The victim is rank 2, and
// rank 0 with the coordinator surviving it (the coordinator is its own
// object; a launcher may host it anywhere): the notice names rank 0 but is
// an ordinary peer failure. Whatever the schedule, the survivors must detect
// the failure as a typed error, roll back the uncommitted step, rebalance
// onto the remaining ranks and finish inside the deadline, and the merged
// archive (the dead rank's salvaged shard included) must be byte-identical
// to the single-process golden.
func TestRunRankSurvivesRankDeath(t *testing.T) {
	golden, _ := driverStream(t, rankSteps(), rankCfg, Options{})
	const ranks = 3
	victims := []int{2, 0}

	// A healthy run tells which of a victim's writes belong to step 1, so
	// the sweep does not encode the collective layout.
	writes := make([]atomic.Int64, ranks)
	atCommit := make([][]int64, ranks)
	counting := map[int]func(network, addr string) (net.Conn, error){}
	for _, v := range victims {
		counting[v] = func(network, addr string) (net.Conn, error) {
			c, err := net.DialTimeout(network, addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return countingConn{c, &writes[v]}, nil
		}
	}
	_, ts := tcpWorld(t, ranks, counting)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := rankCfg
			cfg.OnCommit = func(int, int) { atCommit[r] = append(atCommit[r], writes[r].Load()) }
			if _, err := RunRank(context.Background(), ts[r], FromSnapshots(rankSteps()), &bytes.Buffer{}, cfg); err != nil {
				t.Errorf("healthy rank %d: %v", r, err)
			}
		}()
	}
	wg.Wait()

	for _, v := range victims {
		at := atCommit[v]
		if t.Failed() || len(at) != 3 || at[1] <= at[0] {
			t.Fatalf("healthy run: rank %d write counts at commit %v", v, at)
		}
		for k := at[0]; k <= at[1]; k++ {
			t.Run(fmt.Sprintf("rank-%d-drop-after-write-%d", v, k), func(t *testing.T) {
				watchdog := time.AfterFunc(60*time.Second, func() {
					panic(fmt.Sprintf("rank %d drop after write %d: a survivor hung past the deadline", v, k))
				})
				defer watchdog.Stop()
				rankDeath(t, golden, v, int(k))
			})
		}
	}
}

// rankDeath runs the 3-rank TCP world with the victim's link dying after its
// k-th write and holds the outcome against the golden.
func rankDeath(t *testing.T, golden []byte, victim, k int) {
	const ranks = 3
	dir := t.TempDir()
	dial := map[int]func(network, addr string) (net.Conn, error){
		victim: func(network, addr string) (net.Conn, error) {
			c, err := net.DialTimeout(network, addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return faultinject.WrapConn(c, faultinject.ConnFaults{DropAfterWrites: k}), nil
		},
	}
	_, ts := tcpWorld(t, ranks, dial)

	shardPath := func(r int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d.acs", r)) }
	errs := make([]error, ranks)
	stats := make([]*RankRunStats, ranks)
	failures := make([]int, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fh, err := os.Create(shardPath(r))
			if err != nil {
				errs[r] = err
				return
			}
			defer fh.Close()
			cfg := rankCfg
			cfg.OnFailure = func(rank, epoch int) { failures[r]++ }
			stats[r], errs[r] = RunRank(context.Background(), ts[r], FromSnapshots(rankSteps()), fh, cfg)
		}()
	}
	wg.Wait()

	if !errors.Is(errs[victim], apierr.ErrCoordinatorLost) {
		t.Errorf("dead rank %d: err = %v, want ErrCoordinatorLost", victim, errs[victim])
	}
	var survivors []int
	for r := 0; r < ranks; r++ {
		if r != victim {
			survivors = append(survivors, r)
		}
	}
	for _, r := range survivors {
		if errs[r] != nil {
			t.Errorf("survivor rank %d: %v", r, errs[r])
			return
		}
		st := stats[r]
		if st.Steps != 3 || st.FinalEpoch == 0 || failures[r] == 0 {
			t.Errorf("survivor rank %d stats %+v with %d failure events, want 3 steps under a new epoch", r, *st, failures[r])
		}
		if !slices.Equal(st.Alive, survivors) {
			t.Errorf("survivor rank %d alive set %v, want %v", r, st.Alive, survivors)
		}
	}

	var in []core.ShardInput
	for r := 0; r < ranks; r++ {
		b, err := os.ReadFile(shardPath(r))
		if err != nil {
			t.Error(err)
			return
		}
		in = append(in, core.ShardInput{R: bytes.NewReader(b), Size: int64(len(b))})
	}
	var merged bytes.Buffer
	rep, err := core.MergeShards(&merged, in, 8)
	if err != nil {
		t.Errorf("merge: %v", err)
		return
	}
	if rep.Steps != 3 {
		t.Errorf("merged %d steps, want 3", rep.Steps)
	}
	if rep.SalvagedShards == 0 {
		t.Error("dead rank's shard was not salvaged")
	}
	if !bytes.Equal(merged.Bytes(), golden) {
		t.Error("post-failure merged archive differs from the single-process golden")
	}
}

// TestRunRankRejectsMissingBudget: a field with neither an AvgEBs entry nor
// a default AvgEB is a config error, never Options.RelAvgEB's default.
func TestRunRankRejectsMissingBudget(t *testing.T) {
	for _, budgets := range []map[string]float64{nil, {"temp": 4.0}} {
		err := mpi.Run(1, func(c *mpi.Comm) error {
			_, err := RunRank(context.Background(), c.Transport(), FromSnapshots(rankSteps()), &bytes.Buffer{}, RankConfig{
				Engine: core.Config{PartitionDim: 8},
				AvgEBs: budgets,
			})
			return err
		})
		if !errors.Is(err, apierr.ErrBadConfig) {
			t.Fatalf("AvgEBs %v: err = %v, want ErrBadConfig", budgets, err)
		}
	}
}

func TestRunRankRejectsMoreRanksThanPartitions(t *testing.T) {
	// 16^3 at partition dim 16 → 1 partition for 2 ranks.
	err := mpi.Run(2, func(c *mpi.Comm) error {
		cfg := RankConfig{Engine: core.Config{PartitionDim: 16}, AvgEB: 1}
		_, err := RunRank(context.Background(), c.Transport(), FromSnapshots(rankSteps()), &bytes.Buffer{}, cfg)
		return err
	})
	if !errors.Is(err, apierr.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}
