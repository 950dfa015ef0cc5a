package mpinet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/apierr"
	"repro/internal/faultinject"
	"repro/internal/mpi"
)

// quiet returns a config with the real-time tickers disabled: every test
// below drives liveness explicitly (abrupt closes arrive as immediate read
// errors; staleness is injected via SweepStale with a fake clock), so no
// test waits on a wall-clock timer.
func quiet() Config {
	return Config{HeartbeatInterval: -1, HeartbeatTimeout: -1}
}

// startWorld spins up a coordinator plus size joined transports.
func startWorld(t *testing.T, size int, cfg Config) (*Coordinator, []*Transport) {
	t.Helper()
	coord, err := Listen("127.0.0.1:0", size, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	ts := make([]*Transport, size)
	for r := 0; r < size; r++ {
		tr, err := Join(coord.Addr(), r, size, cfg)
		if err != nil {
			t.Fatalf("rank %d join: %v", r, err)
		}
		ts[r] = tr
		t.Cleanup(func() { tr.conn.Close() })
	}
	return coord, ts
}

// runRanks executes fn concurrently on every transport and collects the
// first error.
func runRanks(ts []*Transport, fn func(c *mpi.Comm) error) error {
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for r, tr := range ts {
		wg.Add(1)
		go func(r int, tr *Transport) {
			defer wg.Done()
			errs[r] = fn(mpi.NewComm(tr))
		}(r, tr)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// protocol runs a representative mix of collectives and returns every
// result flattened, for byte-exact comparison across transports.
func protocol(c *mpi.Comm) ([]float64, error) {
	var out []float64
	rank := float64(c.Rank())
	s, err := c.Allreduce(1e16*rank-3.7*rank*rank+1, mpi.OpSum)
	if err != nil {
		return nil, err
	}
	mn, err := c.Allreduce(rank-2, mpi.OpMin)
	if err != nil {
		return nil, err
	}
	mx, err := c.Allreduce(rank*rank, mpi.OpMax)
	if err != nil {
		return nil, err
	}
	g, err := c.Allgather(rank * 11)
	if err != nil {
		return nil, err
	}
	mine := make([]float64, c.Rank()+1)
	for i := range mine {
		mine[i] = rank + float64(i)/8
	}
	gv, err := c.AllgatherSlice(mine)
	if err != nil {
		return nil, err
	}
	b, err := c.Bcast(rank*100, c.Size()-1) // nonzero root
	if err != nil {
		return nil, err
	}
	sl, err := c.AllreduceSlice([]float64{rank, -rank, 1}, mpi.OpSum)
	if err != nil {
		return nil, err
	}
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	out = append(out, s, mn, mx, b)
	out = append(out, g...)
	out = append(out, gv...)
	out = append(out, sl...)
	return out, nil
}

// TestCollectivesMatchInProcess is the transport-equivalence contract: the
// same protocol over TCP produces bit-identical results to the in-process
// world.
func TestCollectivesMatchInProcess(t *testing.T) {
	const size = 3
	want := make([][]float64, size)
	if err := mpi.Run(size, func(c *mpi.Comm) error {
		out, err := protocol(c)
		want[c.Rank()] = out
		return err
	}); err != nil {
		t.Fatal(err)
	}

	_, ts := startWorld(t, size, quiet())
	got := make([][]float64, size)
	err := runRanks(ts, func(c *mpi.Comm) error {
		out, err := protocol(c)
		if err == nil {
			got[c.Rank()] = out
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < size; r++ {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("rank %d: %d results, want %d", r, len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("rank %d result %d: TCP %v != in-process %v", r, i, got[r][i], want[r][i])
			}
		}
	}
}

// TestRankDeathFailsFastAndRecovers: rank 2's process "dies" (abrupt conn
// close, the TCP shadow of kill -9) while the survivors sit in a barrier.
// They must get the typed failure naming rank 2, adopt epoch 1, and then
// complete collectives among themselves — seq realigned, no hang.
func TestRankDeathFailsFastAndRecovers(t *testing.T) {
	coord, ts := startWorld(t, 3, quiet())

	// A healthy collective first, so the retry path starts from seq > 0.
	if err := runRanks(ts, func(c *mpi.Comm) error {
		_, err := c.Allreduce(1, mpi.OpSum)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		err := runRanks(ts[:2], func(c *mpi.Comm) error {
			err := c.Barrier()
			var rf *apierr.RankFailedError
			if !errors.As(err, &rf) {
				return fmt.Errorf("barrier with dead rank: %v", err)
			}
			if rf.Rank != 2 || rf.Epoch != 1 {
				return fmt.Errorf("failure = rank %d epoch %d, want rank 2 epoch 1", rf.Rank, rf.Epoch)
			}
			// Retry among survivors: everything realigns at seq 0.
			sum, err := c.Allreduce(float64(c.Rank()+1), mpi.OpSum)
			if err != nil {
				return fmt.Errorf("post-failure allreduce: %w", err)
			}
			if sum != 3 { // ranks 0,1 contribute 1+2
				return fmt.Errorf("survivor sum = %v, want 3", sum)
			}
			alive := c.Alive()
			if len(alive) != 2 || alive[0] != 0 || alive[1] != 1 {
				return fmt.Errorf("alive = %v", alive)
			}
			if c.Epoch() != 1 {
				return fmt.Errorf("epoch = %d", c.Epoch())
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}()

	time.Sleep(50 * time.Millisecond) // let the survivors enter the barrier
	ts[2].conn.Close()                // kill -9
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("survivors hung after rank death")
	}
	if got := coord.Alive(); len(got) != 2 {
		t.Fatalf("coordinator alive = %v", got)
	}
}

// TestFailureBetweenCallsIsDeliveredToNextCall: a rank that is computing
// (not blocked in a collective) when the epoch turns must still see the
// failure on its next call, so its caller aborts the step like everyone
// else.
func TestFailureBetweenCallsIsDeliveredToNextCall(t *testing.T) {
	_, ts := startWorld(t, 2, quiet())
	ts[1].conn.Close() // rank 1 dies; rank 0 is between collectives

	// Wait until rank 0's transport has adopted the new epoch.
	deadline := time.Now().Add(10 * time.Second)
	for ts[0].Epoch() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("epoch never advanced")
		}
		time.Sleep(time.Millisecond)
	}
	c := mpi.NewComm(ts[0])
	_, err := c.Allreduce(1, mpi.OpSum)
	var rf *apierr.RankFailedError
	if !errors.As(err, &rf) || rf.Rank != 1 {
		t.Fatalf("next call after between-calls failure: %v", err)
	}
	// The failure is delivered exactly once; the call after it runs in
	// the new epoch (world of one).
	sum, err := c.Allreduce(7, mpi.OpSum)
	if err != nil || sum != 7 {
		t.Fatalf("retry: sum=%v err=%v", sum, err)
	}
}

// TestHeartbeatSweepDetectsSilentRank drives the failure detector with a
// fake clock — no real timers: ranks 0 and 1 keep heartbeating, rank 2
// goes silent (one-way partition: it still reads, its writes vanish), and
// a stale sweep at fake now + timeout must fail exactly rank 2.
func TestHeartbeatSweepDetectsSilentRank(t *testing.T) {
	clk := faultinject.NewClock()
	cfg := quiet()
	cfg.HeartbeatTimeout = 2 * time.Second // used by SweepStale comparisons only
	cfg.Now = clk.Now

	coord, err := Listen("127.0.0.1:0", 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := make([]*Transport, 3)
	for r := 0; r < 3; r++ {
		mcfg := cfg
		if r == 2 {
			// Rank 2's writes black-hole after the handshake: the classic
			// asymmetric partition the heartbeat detector exists for.
			mcfg.Dial = func(network, addr string) (net.Conn, error) {
				conn, err := net.Dial(network, addr)
				if err != nil {
					return nil, err
				}
				return faultinject.WrapConn(conn, faultinject.ConnFaults{DropAfterWrites: 2}), nil
			}
		}
		ts[r], err = Join(coord.Addr(), r, 3, mcfg)
		if err != nil {
			t.Fatalf("rank %d join: %v", r, err)
		}
		defer ts[r].conn.Close()
	}

	// Time passes; the healthy ranks heartbeat, rank 2 is silent.
	clk.Advance(1500 * time.Millisecond)
	for r := 0; r < 2; r++ {
		if err := ts[r].write(&frame{kind: kindHeartbeat, from: r}); err != nil {
			t.Fatalf("rank %d heartbeat: %v", r, err)
		}
	}
	// Give the coordinator a moment to stamp lastSeen for ranks 0/1.
	deadlineOK := func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return clk.Now().Sub(coord.lastSeen[0]) < time.Second && clk.Now().Sub(coord.lastSeen[1]) < time.Second
	}
	deadline := time.Now().Add(10 * time.Second)
	for !deadlineOK() {
		if time.Now().After(deadline) {
			t.Fatal("heartbeats never recorded")
		}
		time.Sleep(time.Millisecond)
	}

	clk.Advance(1 * time.Second) // rank 2 now stale (2.5s > 2s); ranks 0/1 fresh (1s)
	coord.SweepStale(clk.Now())

	if got := coord.Alive(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("alive after sweep = %v, want [0 1]", got)
	}
	// Survivors learn within one collective call.
	err = runRanks(ts[:2], func(c *mpi.Comm) error {
		_, err := c.Allreduce(1, mpi.OpSum)
		var rf *apierr.RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 2 {
			return fmt.Errorf("sweep not surfaced: %v", err)
		}
		if sum, err := c.Allreduce(1, mpi.OpSum); err != nil || sum != 2 {
			return fmt.Errorf("post-sweep retry: sum=%v err=%v", sum, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConnDropShapingRecovers: one rank's link is scripted to drop after
// its first contribution (faultinject.DropAfterWrites); survivors must
// recover and finish without it.
func TestConnDropShapingRecovers(t *testing.T) {
	cfg := quiet()
	coord, err := Listen("127.0.0.1:0", 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := make([]*Transport, 3)
	for r := 0; r < 3; r++ {
		mcfg := cfg
		if r == 1 {
			mcfg.Dial = func(network, addr string) (net.Conn, error) {
				conn, err := net.Dial(network, addr)
				if err != nil {
					return nil, err
				}
				// hello + one contribute, then the link dies.
				return faultinject.WrapConn(conn, faultinject.ConnFaults{DropAfterWrites: 2}), nil
			}
		}
		ts[r], err = Join(coord.Addr(), r, 3, mcfg)
		if err != nil {
			t.Fatalf("rank %d join: %v", r, err)
		}
		defer ts[r].conn.Close()
	}

	err = runRanks(ts, func(c *mpi.Comm) error {
		_, err := c.Allreduce(1, mpi.OpSum)
		if err == nil {
			// The dying rank's contribution is delivered before its link
			// drops, so the round may complete — for the survivors, and
			// even for the shaped rank if the result beats the drop; the
			// death then surfaces on everyone's next collective.
			_, err = c.Allreduce(1, mpi.OpSum)
		}
		if c.Rank() == 1 {
			// The shaped rank must see an error (its link died), typed as
			// a rank failure (it lost the coordinator).
			if !errors.Is(err, apierr.ErrRankFailed) {
				return fmt.Errorf("shaped rank err = %v", err)
			}
			return nil
		}
		var rf *apierr.RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 1 {
			return fmt.Errorf("survivor err = %v, want rank 1 failure", err)
		}
		sum, err := c.Allreduce(float64(c.Rank()+1), mpi.OpSum)
		if err != nil || sum != 4 { // ranks 0,2 contribute 1+3
			return fmt.Errorf("survivor retry: sum=%v err=%v", sum, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceSliceMismatchIsRecoverableOverTCP mirrors the in-process
// contract: a length mismatch errors every rank without poisoning
// membership.
func TestAllreduceSliceMismatchIsRecoverableOverTCP(t *testing.T) {
	_, ts := startWorld(t, 3, quiet())
	err := runRanks(ts, func(c *mpi.Comm) error {
		_, err := c.AllreduceSlice(make([]float64, 1+c.Rank()), mpi.OpSum)
		if err == nil {
			return errors.New("length mismatch accepted")
		}
		if errors.Is(err, apierr.ErrRankFailed) {
			return fmt.Errorf("mismatch mis-typed as rank failure: %v", err)
		}
		// Membership intact; the next collective works.
		out, err := c.AllreduceSlice([]float64{float64(c.Rank())}, mpi.OpMax)
		if err != nil || len(out) != 1 || out[0] != 2 {
			return fmt.Errorf("post-mismatch reduce: %v %v", out, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestP2PRouting: sends route through the coordinator; Recv from a rank
// that dies fails typed instead of blocking forever.
func TestP2PRouting(t *testing.T) {
	_, ts := startWorld(t, 3, quiet())
	err := runRanks(ts, func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0:
			if err := c.Send(1, []float64{42, 43}); err != nil {
				return err
			}
			return c.Send(1, []float64{44})
		case 1:
			m1, err := c.Recv(0)
			if err != nil {
				return err
			}
			m2, err := c.Recv(0)
			if err != nil {
				return err
			}
			if len(m1) != 2 || m1[0] != 42 || m1[1] != 43 || len(m2) != 1 || m2[0] != 44 {
				return fmt.Errorf("recv %v %v", m1, m2)
			}
			return nil
		default:
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvFromDeadRankFails(t *testing.T) {
	_, ts := startWorld(t, 2, quiet())
	done := make(chan error, 1)
	go func() {
		_, err := mpi.NewComm(ts[0]).Recv(1)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	ts[1].conn.Close() // rank 1 dies while rank 0 blocks in Recv
	select {
	case err := <-done:
		var rf *apierr.RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 1 {
			t.Fatalf("recv from dead rank: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("recv hung on dead sender")
	}
}

// TestCoordinatorLossIsTerminal: members that lose the coordinator report
// a typed failure forever — the run cannot continue, but it never hangs.
func TestCoordinatorLossIsTerminal(t *testing.T) {
	coord, ts := startWorld(t, 2, quiet())
	coord.Close()
	err := runRanks(ts, func(c *mpi.Comm) error {
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, err := c.Allreduce(1, mpi.OpSum)
			if errors.Is(err, apierr.ErrRankFailed) {
				// Terminal: stays failed.
				if _, err2 := c.Allgather(1); !errors.Is(err2, apierr.ErrRankFailed) {
					return fmt.Errorf("second call after coordinator loss: %v", err2)
				}
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("coordinator loss never surfaced (last err %v)", err)
			}
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGoodbyeIsNotAFailure: clean Close keeps the epoch at 0 and fails
// nothing.
func TestGoodbyeIsNotAFailure(t *testing.T) {
	coord, ts := startWorld(t, 2, quiet())
	if err := runRanks(ts, func(c *mpi.Comm) error {
		_, err := c.Allreduce(1, mpi.OpSum)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ts[1].Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if alive := coord.Alive(); len(alive) == 1 && alive[0] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goodbye not processed: alive = %v", coord.Alive())
		}
		time.Sleep(time.Millisecond)
	}
	if coord.Epoch() != 0 {
		t.Fatalf("clean leave bumped epoch to %d", coord.Epoch())
	}
	// The remaining rank still operates (world of one).
	if sum, err := mpi.NewComm(ts[0]).Allreduce(5, mpi.OpSum); err != nil || sum != 5 {
		t.Fatalf("post-goodbye collective: sum=%v err=%v", sum, err)
	}
}

// --- Wire format ----------------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	f := &frame{
		kind:  kindContribute,
		epoch: 3,
		seq:   77,
		from:  2,
		aux:   packColl(collReduce, int(mpi.OpMax), 0),
		vec:   []float64{1.5, -2.25, 1e300},
		extra: []byte("hello"),
	}
	buf, err := appendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != f.kind || got.epoch != f.epoch || got.seq != f.seq || got.from != f.from || got.aux != f.aux {
		t.Fatalf("header mismatch: %+v vs %+v", got, f)
	}
	if len(got.vec) != 3 || got.vec[2] != 1e300 {
		t.Fatalf("vec %v", got.vec)
	}
	if string(got.extra) != "hello" {
		t.Fatalf("extra %q", got.extra)
	}
	k, op, _ := unpackColl(got.aux)
	if k != collReduce || op != int(mpi.OpMax) {
		t.Fatalf("unpacked %d %d", k, op)
	}
}

func TestFrameCRCRejectsCorruption(t *testing.T) {
	buf, err := appendFrame(nil, &frame{kind: kindResult, vec: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < len(buf); i++ { // every payload byte
		mut := bytes.Clone(buf)
		mut[i] ^= 0x40
		if _, err := readFrame(bytes.NewReader(mut)); !errors.Is(err, apierr.ErrCorruptArchive) {
			t.Fatalf("corruption at byte %d accepted (err=%v)", i, err)
		}
	}
}

func TestFrameRejectsHostileLength(t *testing.T) {
	hostile := make([]byte, 8)
	hostile[0] = 0xFF // payload length ~4 GiB
	hostile[1] = 0xFF
	hostile[2] = 0xFF
	hostile[3] = 0xFF
	if _, err := readFrame(bytes.NewReader(hostile)); !errors.Is(err, apierr.ErrCorruptArchive) {
		t.Fatalf("hostile length accepted: %v", err)
	}
	// Truncated-but-plausible: declared length larger than stream.
	buf, _ := appendFrame(nil, &frame{kind: kindHeartbeat})
	if _, err := readFrame(bytes.NewReader(buf[:len(buf)-1])); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// TestGarbageHandshakeRejected: random bytes at the coordinator port must
// not corrupt the world.
func TestGarbageHandshakeRejected(t *testing.T) {
	coord, ts := startWorld(t, 2, quiet())
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	conn.Close()
	// The real members are unaffected.
	if err := runRanks(ts, func(c *mpi.Comm) error {
		sum, err := c.Allreduce(1, mpi.OpSum)
		if err != nil || sum != 2 {
			return fmt.Errorf("sum=%v err=%v", sum, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if coord.Epoch() != 0 {
		t.Fatalf("garbage conn bumped epoch to %d", coord.Epoch())
	}
}

// TestRealHeartbeatsEndToEnd leaves the real tickers on with tight
// timings and verifies a kill is detected within the heartbeat timeout —
// the one test that exercises the production timer path.
func TestRealHeartbeatsEndToEnd(t *testing.T) {
	cfg := Config{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
	}
	coord, ts := startWorld(t, 3, cfg)
	start := time.Now()
	ts[2].conn.Close()
	err := runRanks(ts[:2], func(c *mpi.Comm) error {
		err := c.Barrier()
		var rf *apierr.RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 2 {
			return fmt.Errorf("barrier after kill: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("detection took %v", waited)
	}
	if got := coord.Alive(); len(got) != 2 {
		t.Fatalf("alive = %v", got)
	}
}
