package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/obs"
)

const maxVecCount = blockserver.MaxVecCount

// poolStats are one backend's service counters. The Volume owns one
// per disk slot (see diskStats) so the numbers survive ReplaceBackend:
// a disk's history does not reset because its machine was swapped.
type poolStats struct {
	requests  obs.Counter // operations submitted
	retries   obs.Counter // extra attempts after transport failures
	dials     obs.Counter // connections opened
	errors    obs.Counter // operations that ultimately failed
	poisoned  obs.Counter // connections poisoned and closed by transport errors
	deaths    obs.Counter // alive→dead state transitions
	revivals  obs.Counter // dead→alive state transitions (successful probes)
	deadGauge obs.Gauge   // 1 while marked dead, else 0
}

// pool is a fixed-size connection pool to one backend with a
// marked-dead/probe-recovery state machine. Transport failures retire
// the offending connection and are retried on a fresh one with
// exponential backoff; after DeadAfter consecutive failures the backend
// is marked dead and callers fail fast until a background probe dial
// revives it.
//
// Both wire modes share one table of PoolSize connection slots, with
// per-slot single-flight dialing, identity-checked retirement, one
// retry loop (doCtx), and one way for a probe to hand its connection to
// an empty slot. Only the choice of slot (pick/put) depends on the mode:
//
//   - synchronous (Config.Pipeline false): connections are the
//     concurrency units — an op takes a slot for itself for its full
//     round trip, through the PoolSize semaphore and a LIFO stack of
//     free slots, so the most recently used live connection is reused
//     first.
//   - pipelined (Config.Pipeline true): the slots' multiplexed
//     connections carry many tagged in-flight ops each (bounded by the
//     per-connection window) and are shared round-robin; a transport
//     tear retires the one connection — counted once, however many
//     in-flight ops it failed — and the next op redials the slot.
type pool struct {
	addr string
	cfg  Config

	sem chan struct{} // synchronous mode: cap = cfg.PoolSize
	rr  atomic.Uint32 // pipelined mode: round-robin cursor over slots

	// closeCtx is cancelled by close() so an in-flight dial — typically
	// a recovery probe against an unreachable backend, which would
	// otherwise sit out its full DialTimeout — aborts immediately and no
	// probing goroutine outlives shutdown.
	closeCtx    context.Context
	cancelClose context.CancelFunc

	mu         sync.Mutex
	conns      []*blockserver.Client // slot table; nil slots dial on demand
	dialing    []chan struct{}       // per-slot single-flight dial latch
	free       []int                 // synchronous mode: free slots, most recently put last
	closed     bool
	dead       bool
	probing    bool // a background probe dial is in flight
	failures   int  // consecutive transport failures
	probeLevel int  // consecutive failed probes while dead
	nextProbe  time.Time

	stats     *poolStats // owned by the Volume; survives pool replacement
	pipeStats *blockserver.PipeStats
}

func newPool(addr string, cfg Config, stats *poolStats, pipeStats *blockserver.PipeStats) *pool {
	if stats == nil {
		stats = &poolStats{}
	}
	p := &pool{addr: addr, cfg: cfg, stats: stats, pipeStats: pipeStats,
		conns:   make([]*blockserver.Client, cfg.PoolSize),
		dialing: make([]chan struct{}, cfg.PoolSize)}
	p.closeCtx, p.cancelClose = context.WithCancel(context.Background())
	p.sem = make(chan struct{}, cfg.PoolSize)
	for i := 0; i < cfg.PoolSize; i++ {
		p.sem <- struct{}{}
		p.free = append(p.free, i)
	}
	return p
}

// close tears down every slot's connection and aborts any dial in
// flight; operations still in flight fail with a closed error.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	conns := append([]*blockserver.Client(nil), p.conns...)
	clear(p.conns)
	p.mu.Unlock()
	p.cancelClose()
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// isDead reports the fail-fast state: marked dead with either a probe
// already in flight or the probe window still closed. Foreground ops
// never dial a dead backend themselves — recovery is the background
// probe's job (see maybeProbe), so no caller burns DialTimeout against
// a machine that is likely still down.
func (p *pool) isDead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead && (p.probing || time.Now().Before(p.nextProbe))
}

// maybeProbe launches the background recovery probe when the backend is
// dead and its probe window has opened. The probe dial holds no slot
// and no caller's context: foreground ops keep failing fast (and keep
// their connection slots) while the probe sits out DialTimeout against
// an unreachable peer. The window is pushed forward before the dial so
// repeated callers cannot schedule a probe herd.
func (p *pool) maybeProbe() {
	p.mu.Lock()
	if p.closed || !p.dead || p.probing || time.Now().Before(p.nextProbe) {
		p.mu.Unlock()
		return
	}
	p.probing = true
	backoff := p.cfg.ProbeEvery << p.probeLevel
	if backoff > p.cfg.MaxProbe {
		backoff = p.cfg.MaxProbe
	}
	p.nextProbe = time.Now().Add(backoff)
	if p.probeLevel < 30 {
		p.probeLevel++
	}
	p.mu.Unlock()
	go p.probe()
}

// probe is the background recovery dial. On success the backend is
// revived and the fresh connection goes to the first empty slot, so the
// dial is not wasted; on failure the state machine is left as
// maybeProbe set it (window advanced, level raised). A slot an op holds
// in synchronous mode is empty only while that op dials it or between
// its retirement and put, and connect keeps a donated connection, so
// the donation never shares a synchronous connection between two ops.
func (p *pool) probe() {
	c, err := p.dial(p.closeCtx)
	p.mu.Lock()
	p.probing = false
	if err != nil {
		p.mu.Unlock()
		return
	}
	if !p.closed {
		if i := slices.Index(p.conns, nil); i >= 0 {
			p.conns[i], c = c, nil
		}
	}
	closed := p.closed
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
	if !closed {
		p.noteSuccess()
	}
}

// do runs fn with a pooled connection, retrying transport failures on
// fresh connections. Remote (application) errors are returned as-is and
// keep the connection pooled; transport errors retire it.
func (p *pool) do(fn func(*blockserver.Client) error) error {
	return p.doCtx(context.Background(), func(_ context.Context, c *blockserver.Client) error {
		return fn(c)
	})
}

// doCtx is do with cancellation threaded through every stage: the slot
// wait, retry backoff, the dial, and the wire exchange itself (the
// client interrupts in-flight frames — see blockserver.Client.do). A
// cancelled op is the caller's doing, not the backend's: it is never
// retried and never feeds the dead-marking state machine, so hedge
// losers — which are cancelled constantly by design — cannot talk a
// healthy backend into the dead state.
func (p *pool) doCtx(ctx context.Context, fn func(context.Context, *blockserver.Client) error) error {
	p.stats.requests.Inc()
	if err := ctx.Err(); err != nil {
		p.stats.errors.Inc()
		return err
	}
	p.maybeProbe()
	if p.isDead() {
		p.stats.errors.Inc()
		return fmt.Errorf("%w: %s", ErrBackendDead, p.addr)
	}
	var lastErr error
	for attempt := 0; attempt <= p.cfg.Retries; attempt++ {
		if attempt > 0 {
			p.stats.retries.Inc()
			if err := sleepCtx(ctx, p.cfg.RetryBackoff<<(attempt-1)); err != nil {
				p.stats.errors.Inc()
				return err
			}
			if p.isDead() {
				break
			}
		}
		slot, err := p.pick(ctx)
		if err != nil {
			p.stats.errors.Inc()
			return err
		}
		c, err := p.connect(ctx, slot)
		if err != nil {
			p.put(slot)
			if ctx.Err() != nil {
				p.stats.errors.Inc()
				return err
			}
			lastErr = err
			p.noteFailure()
			continue
		}
		err = fn(ctx, c)
		// CRC verdicts and a missing CRC feature are served on a healthy,
		// synchronized connection, exactly like remote errors: no retry
		// (the bytes are bad, not the backend), no dead-marking.
		if err == nil || blockserver.IsRemote(err) || blockserver.IsCRC(err) ||
			errors.Is(err, blockserver.ErrNoCRC) {
			p.put(slot)
			p.noteSuccess()
			if err != nil {
				p.stats.errors.Inc()
			}
			return err
		}
		// Transport trouble retires the connection. A cancelled caller
		// retires it only if the cancel tore the stream (a synchronous
		// frame interrupted mid-flight); an abandoned pipelined tag leaves
		// the pipe healthy. Either way a cancel never dead-marks.
		cancelled := ctx.Err() != nil
		if !cancelled || c.Broken() != nil {
			p.retire(slot, c, !cancelled)
		}
		p.put(slot)
		if cancelled {
			p.stats.errors.Inc()
			return err
		}
		lastErr = err
	}
	p.stats.errors.Inc()
	if p.isDead() {
		return fmt.Errorf("%w: %s (last error: %v)", ErrBackendDead, p.addr, lastErr)
	}
	return fmt.Errorf("cluster: backend %s: %w", p.addr, lastErr)
}

// pick chooses the slot for one attempt — the only mode-dependent step.
// Synchronous mode takes a slot for itself: a semaphore token, then the
// most recently put free slot that still holds a connection (LIFO reuse),
// or the most recently put empty one when none does. Pipelined mode
// shares the slots round-robin.
func (p *pool) pick(ctx context.Context) (int, error) {
	if p.cfg.Pipeline {
		return int(p.rr.Add(1)) % len(p.conns), nil
	}
	select {
	case <-p.sem:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	top := len(p.free) - 1
	for i := top; i >= 0; i-- {
		if p.conns[p.free[i]] != nil {
			top = i
			break
		}
	}
	slot := p.free[top]
	p.free = append(p.free[:top], p.free[top+1:]...)
	return slot, nil
}

// put hands a picked slot back (synchronous mode; pipelined slots are
// shared and never held).
func (p *pool) put(slot int) {
	if p.cfg.Pipeline {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, slot)
	p.mu.Unlock()
	p.sem <- struct{}{}
}

// connect returns the slot's connection, dialing it on first use or
// after a retirement. Dials are single-flight per slot: concurrent ops
// landing on an empty pipelined slot wait for the one dial in progress
// and share its connection instead of racing their own — a multiplexed
// connection exists precisely so that N ops do not cost N sockets. A
// connection a probe donated while the dial ran wins over the dial's.
func (p *pool) connect(ctx context.Context, slot int) (*blockserver.Client, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, p.closedErr()
		}
		if c := p.conns[slot]; c != nil {
			if c.Broken() == nil {
				p.mu.Unlock()
				return c, nil
			}
			p.conns[slot] = nil
			p.mu.Unlock()
			c.Close()
			continue
		}
		if ch := p.dialing[slot]; ch != nil {
			p.mu.Unlock()
			select {
			case <-ch:
				continue // the dial finished; re-read the slot
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-p.closeCtx.Done():
				return nil, p.closedErr()
			}
		}
		ch := make(chan struct{})
		p.dialing[slot] = ch
		p.mu.Unlock()
		c, err := p.dial(ctx)
		p.mu.Lock()
		p.dialing[slot] = nil
		close(ch)
		switch {
		case err != nil:
		case p.closed:
			err = p.closedErr()
		case p.conns[slot] != nil:
			// A probe donated a connection while we dialed; keep it and
			// close ours.
		default:
			p.conns[slot], c = c, nil
		}
		cur := p.conns[slot]
		p.mu.Unlock()
		if c != nil {
			c.Close()
		}
		if err != nil {
			return nil, err
		}
		return cur, nil
	}
}

func (p *pool) closedErr() error {
	return fmt.Errorf("cluster: pool for %s is closed", p.addr)
}

// retire drops a torn connection from its slot. The identity check
// makes the first observer the only one that closes the connection and
// feeds the failure counter: a pipelined tear fails every op in the
// window at once, and counting it once per op would catapult the backend
// into the dead state on a single flaky socket. fault is false for a
// caller's cancel, which is never held against the backend.
func (p *pool) retire(slot int, c *blockserver.Client, fault bool) {
	p.mu.Lock()
	owner := p.conns[slot] == c
	if owner {
		p.conns[slot] = nil
	}
	p.mu.Unlock()
	if owner {
		c.Close()
		p.stats.poisoned.Inc()
		if fault {
			p.noteFailure()
		}
	}
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// dial opens one negotiated connection. The dial obeys both the
// caller's context and pool shutdown: close() cancelling closeCtx
// aborts a dial that would otherwise hang on an unreachable backend
// until DialTimeout.
func (p *pool) dial(ctx context.Context) (*blockserver.Client, error) {
	p.stats.dials.Inc()
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(p.closeCtx, cancel)
	defer stop()
	var features byte
	if p.cfg.WireCRC {
		features |= blockserver.FeatureCRC
	}
	if p.cfg.Pipeline {
		features |= blockserver.FeaturePipeline
	}
	return blockserver.DialContext(dctx, p.addr, blockserver.Config{
		DialTimeout: p.cfg.DialTimeout,
		OpTimeout:   p.cfg.OpTimeout,
		Features:    features,
		PipeWindow:  p.cfg.PipelineWindow,
		PipeStats:   p.pipeStats,
	})
}

func (p *pool) noteSuccess() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures = 0
	p.probeLevel = 0
	if p.dead {
		p.dead = false
		p.stats.revivals.Inc()
		p.stats.deadGauge.Set(0)
	}
}

func (p *pool) noteFailure() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures++
	if p.failures >= p.cfg.DeadAfter && !p.dead {
		p.dead = true
		p.probeLevel = 0
		p.nextProbe = time.Now().Add(p.cfg.ProbeEvery)
		p.stats.deaths.Inc()
		p.stats.deadGauge.Set(1)
	}
}
