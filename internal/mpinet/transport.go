package mpinet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apierr"
	"repro/internal/mpi"
)

// Transport is one rank's TCP connection to the coordinator. It implements
// mpi.Transport, so mpi.NewComm(t) gives protocol code the exact same
// communicator it gets from the in-process world.
type Transport struct {
	rank int
	size int
	cfg  Config
	conn net.Conn

	wmu sync.Mutex // serializes frame writes

	mu    sync.Mutex
	cond  *sync.Cond // broadcast on p2p delivery and membership changes
	epoch int
	alive map[int]bool
	seq   int
	// waiter, while non-nil, is the channel of the one in-flight
	// collective call (collectives are serial per rank by construction).
	waiter  chan waitResult
	waitSeq int
	// pendingFail holds a failure that arrived between collective calls;
	// the next call consumes it, so a rank that happened to be computing
	// when the epoch turned still aborts and retries its step like the
	// ranks that were blocked mid-collective.
	pendingFail *apierr.RankFailedError
	// terminal, once set, means the coordinator itself is gone; every
	// call fails with it forever.
	terminal error
	closed   bool
	p2pq     map[int][][]float64

	collectives atomic.Int64
	messages    atomic.Int64

	// stop ends the heartbeat ticker promptly on Close or coordinator
	// loss instead of waiting out the next tick.
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

var _ mpi.Transport = (*Transport)(nil)

type waitResult struct {
	vec []float64
	err error
}

// Join connects to the coordinator at addr as the given rank and completes
// the handshake. The returned transport is live: its read loop is running
// and (unless disabled) its heartbeat ticker keeps the membership fresh.
func Join(addr string, rank, size int, cfg Config) (*Transport, error) {
	cfg = cfg.withDefaults()
	dial := cfg.Dial
	if dial == nil {
		d := net.Dialer{Timeout: cfg.DialTimeout}
		dial = d.Dial
	}
	conn, err := dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mpinet: rank %d join %s: %w", rank, addr, err)
	}
	t := &Transport{
		rank: rank,
		size: size,
		cfg:  cfg,
		conn: conn,
		p2pq: make(map[int][][]float64),
		stop: make(chan struct{}),
	}
	t.cond = sync.NewCond(&t.mu)
	hello := &frame{kind: kindHello, from: rank, aux: uint64(size)}
	if err := t.write(hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("mpinet: rank %d hello: %w", rank, err)
	}
	if cfg.DialTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(cfg.DialTimeout))
	}
	w, err := readFrame(conn)
	if err != nil || w.kind != kindWelcome {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("unexpected frame kind %d", w.kind)
		}
		return nil, fmt.Errorf("mpinet: rank %d handshake: %w", rank, err)
	}
	t.epoch = w.epoch
	t.alive = make(map[int]bool, len(w.vec))
	for _, r := range w.vec {
		t.alive[int(r)] = true
	}
	t.wg.Add(1)
	go t.readLoop()
	if cfg.HeartbeatInterval > 0 {
		t.wg.Add(1)
		go t.heartbeatLoop()
	}
	return t, nil
}

// Close leaves the world cleanly (goodbye, then close) and stops the
// transport's goroutines. Collectives after Close fail.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
	t.stopOnce.Do(func() { close(t.stop) })
	t.write(&frame{kind: kindGoodbye, from: t.rank})
	err := t.conn.Close()
	t.wg.Wait()
	return err
}

// write encodes and sends one frame under the per-message deadline.
func (t *Transport) write(f *frame) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	buf, err := appendFrame(nil, f)
	if err != nil {
		return err
	}
	if t.cfg.MessageTimeout > 0 {
		t.conn.SetWriteDeadline(time.Now().Add(t.cfg.MessageTimeout))
	}
	_, err = t.conn.Write(buf)
	return err
}

func (t *Transport) heartbeatLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		t.mu.Lock()
		epoch := t.epoch
		t.mu.Unlock()
		// A failed heartbeat write needs no handling here: the read loop
		// notices the dead conn within the heartbeat timeout.
		t.write(&frame{kind: kindHeartbeat, epoch: epoch, from: t.rank})
	}
}

// readLoop dispatches every coordinator frame. Losing the coordinator —
// read error, or silence past the heartbeat timeout — is terminal: this
// transport cannot rebuild the star's center, so every pending and future
// call fails with a typed error naming rank 0 (the coordinator's owner) and
// carrying apierr.ErrCoordinatorLost, which is what tells it apart from a
// live coordinator's notice that rank 0's own transport died.
func (t *Transport) readLoop() {
	defer t.wg.Done()
	for {
		if t.cfg.HeartbeatTimeout > 0 {
			t.conn.SetReadDeadline(time.Now().Add(2 * t.cfg.HeartbeatTimeout))
		}
		f, err := readFrame(t.conn)
		if err != nil {
			t.mu.Lock()
			if !t.closed && t.terminal == nil {
				t.terminal = &apierr.RankFailedError{
					Rank:  0,
					Epoch: t.epoch,
					Err:   fmt.Errorf("mpinet: %w: %w", apierr.ErrCoordinatorLost, err),
				}
				if t.waiter != nil {
					t.waiter <- waitResult{err: t.terminal}
					t.waiter = nil
				}
				t.cond.Broadcast()
			}
			t.mu.Unlock()
			t.stopOnce.Do(func() { close(t.stop) })
			return
		}
		switch f.kind {
		case kindHeartbeat:
		case kindResult:
			t.mu.Lock()
			if t.waiter != nil && t.waitSeq == f.seq && t.epoch == f.epoch {
				t.waiter <- waitResult{vec: f.vec}
				t.waiter = nil
			}
			t.mu.Unlock()
		case kindCollErr:
			t.mu.Lock()
			if t.waiter != nil && t.waitSeq == f.seq && t.epoch == f.epoch {
				t.waiter <- waitResult{err: fmt.Errorf("mpinet: %s", f.extra)}
				t.waiter = nil
			}
			t.mu.Unlock()
		case kindRankFailed:
			t.mu.Lock()
			if f.epoch > t.epoch {
				t.epoch = f.epoch
				t.seq = 0
				failed := int(f.aux)
				delete(t.alive, failed)
				fe := &apierr.RankFailedError{
					Rank:  failed,
					Epoch: f.epoch,
					Err:   errors.New(string(f.extra)),
				}
				if t.waiter != nil {
					t.waiter <- waitResult{err: fe}
					t.waiter = nil
				} else {
					t.pendingFail = fe
				}
				// Recv calls blocked on the dead rank must re-check.
				t.cond.Broadcast()
			}
			t.mu.Unlock()
		case kindP2P:
			t.mu.Lock()
			t.p2pq[f.from] = append(t.p2pq[f.from], f.vec)
			t.cond.Broadcast()
			t.mu.Unlock()
		}
	}
}

// Rank returns this rank's index.
func (t *Transport) Rank() int { return t.rank }

// Size returns the world's starting rank count.
func (t *Transport) Size() int { return t.size }

// Epoch returns the current membership epoch.
func (t *Transport) Epoch() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// Alive lists the ranks currently believed alive, ascending.
func (t *Transport) Alive() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.alive))
	for r := 0; r < t.size; r++ {
		if t.alive[r] {
			out = append(out, r)
		}
	}
	return out
}

// collective runs one blocking coordinator round trip: contribute, then
// wait for the result, a recoverable collective error, or a membership
// failure. There is no result timeout by design — a collective may
// legitimately block for as long as the slowest rank computes; the
// heartbeat failure detector is what bounds the wait when a rank is
// actually gone.
func (t *Transport) collective(kind, op, root int, vec []float64) ([]float64, error) {
	t.mu.Lock()
	if t.terminal != nil {
		err := t.terminal
		t.mu.Unlock()
		return nil, err
	}
	if t.closed {
		t.mu.Unlock()
		return nil, errors.New("mpinet: transport closed")
	}
	if pf := t.pendingFail; pf != nil {
		// A failure arrived while this rank was between collectives:
		// deliver it now so the caller aborts and retries its step in the
		// new epoch like everyone else.
		t.pendingFail = nil
		t.mu.Unlock()
		return nil, pf
	}
	if t.waiter != nil {
		t.mu.Unlock()
		return nil, errors.New("mpinet: concurrent collective calls on one rank")
	}
	ch := make(chan waitResult, 1)
	seq := t.seq
	t.seq++
	t.waiter = ch
	t.waitSeq = seq
	epoch := t.epoch
	t.mu.Unlock()

	t.collectives.Add(1)
	err := t.write(&frame{
		kind:  kindContribute,
		epoch: epoch,
		seq:   seq,
		from:  t.rank,
		aux:   packColl(kind, op, root),
		vec:   vec,
	})
	if err != nil {
		// The conn is dead; the read loop will set terminal and feed the
		// waiter. Block on the waiter rather than racing it.
	}
	res := <-ch
	return res.vec, res.err
}

// Barrier blocks until every alive rank has entered it.
func (t *Transport) Barrier() error {
	_, err := t.collective(collBarrier, 0, 0, nil)
	return err
}

// Allreduce combines one scalar per alive rank in ascending rank order.
func (t *Transport) Allreduce(v float64, op mpi.Op) (float64, error) {
	out, err := t.collective(collReduce, int(op), 0, []float64{v})
	if err != nil {
		return 0, err
	}
	if len(out) != 1 {
		return 0, fmt.Errorf("mpinet: allreduce result has %d values", len(out))
	}
	return out[0], nil
}

// AllreduceSlice element-wise reduces equal-length vectors.
func (t *Transport) AllreduceSlice(v []float64, op mpi.Op) ([]float64, error) {
	if len(v) == 0 {
		return nil, errors.New("mpinet: AllreduceSlice of empty vector")
	}
	return t.collective(collReduce, int(op), 0, v)
}

// Allgather collects one scalar per alive rank, ascending.
func (t *Transport) Allgather(v float64) ([]float64, error) {
	return t.collective(collGather, 0, 0, []float64{v})
}

// AllgatherSlice concatenates per-rank vectors in ascending rank order.
func (t *Transport) AllgatherSlice(v []float64) ([]float64, error) {
	return t.collective(collGatherV, 0, 0, v)
}

// Bcast distributes root's value to every alive rank.
func (t *Transport) Bcast(v float64, root int) (float64, error) {
	if root < 0 || root >= t.size {
		return 0, fmt.Errorf("mpinet: bcast from invalid root %d", root)
	}
	out, err := t.collective(collBcast, 0, root, []float64{v})
	if err != nil {
		return 0, err
	}
	if len(out) != 1 {
		return 0, fmt.Errorf("mpinet: bcast result has %d values", len(out))
	}
	return out[0], nil
}

// Send routes a vector to rank `to` via the coordinator. Like a buffered
// MPI send it returns once the message is on the wire; if the target is
// dead the message is dropped and the failure surfaces through collectives
// or the target's own Recv.
func (t *Transport) Send(to int, data []float64) error {
	if to < 0 || to >= t.size {
		return fmt.Errorf("mpinet: send to invalid rank %d", to)
	}
	t.mu.Lock()
	if t.terminal != nil {
		err := t.terminal
		t.mu.Unlock()
		return err
	}
	t.mu.Unlock()
	t.messages.Add(1)
	return t.write(&frame{kind: kindP2P, from: t.rank, aux: uint64(to), vec: data})
}

// Recv blocks for the next message from rank `from`. Messages already
// delivered are drained first; then a dead sender (or a lost coordinator)
// fails the call with the typed error instead of blocking forever.
func (t *Transport) Recv(from int) ([]float64, error) {
	if from < 0 || from >= t.size {
		return nil, fmt.Errorf("mpinet: recv from invalid rank %d", from)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if q := t.p2pq[from]; len(q) > 0 {
			msg := q[0]
			t.p2pq[from] = q[1:]
			return msg, nil
		}
		if t.terminal != nil {
			return nil, t.terminal
		}
		if !t.alive[from] {
			return nil, &apierr.RankFailedError{Rank: from, Epoch: t.epoch}
		}
		if t.closed {
			return nil, errors.New("mpinet: transport closed")
		}
		t.cond.Wait()
	}
}

// Stats reports this rank's collective and message counts (per-rank, not
// world-global like the in-process transport's).
func (t *Transport) Stats() (collectives, messages int64) {
	return t.collectives.Load(), t.messages.Load()
}
