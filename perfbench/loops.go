package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shiftedmirror/internal/workload"
)

// recorder accumulates the outcome of user ops over one or more
// measurement windows.
type recorder struct {
	reads, writes, degraded []time.Duration
	readBytes, writeBytes   int64
	attempted, failed       int64
	firstErr                string
	elapsed                 time.Duration // time spent in measurement windows
	rebuilds                []float64     // seconds per rebuild cycle
	late                    []time.Duration
	inflightMax             int64
	meter                   *meter // set while a measured window runs
	// own is the bytes the recorder allocated for its latency records,
	// which alloc_bytes_per_op leaves out.
	own int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{
		reads:  make([]time.Duration, 0, capacity),
		writes: make([]time.Duration, 0, capacity/2),
		own:    int64(capacity+capacity/2) * 8,
	}
}

// push appends d to *s, counting what a growth of *s allocates.
func (r *recorder) push(s *[]time.Duration, d time.Duration) {
	c := cap(*s)
	*s = append(*s, d)
	if cap(*s) != c {
		r.own += int64(cap(*s)) * 8
	}
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = err.Error()
	}
}

func (r *recorder) merge(o *recorder) {
	for _, m := range []struct{ to, from *[]time.Duration }{{&r.reads, &o.reads}, {&r.writes, &o.writes}, {&r.degraded, &o.degraded}} {
		c := cap(*m.to)
		*m.to = append(*m.to, *m.from...)
		if cap(*m.to) != c {
			r.own += int64(cap(*m.to)) * 8
		}
	}
	r.own += o.own
	r.readBytes += o.readBytes
	r.writeBytes += o.writeBytes
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
}

// meter sums the activity of a measured window, leaving out the
// benchmark's own verification inside it: the bytes allocated, and in
// the traced run the layer counters.
type meter struct {
	snap  func() counters // layer counters; nil in the untraced run
	tr    *tracer         // nil in the untraced run
	start counters
	acc   counters
}

func newMeter(snap func() counters, tr *tracer) *meter {
	return &meter{snap: snap, tr: tr, acc: newCounters()}
}

func (m *meter) read() counters {
	c := newCounters()
	if m.snap != nil {
		c = m.snap()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.v["runtime.alloc_bytes"] = float64(ms.TotalAlloc)
	return c
}

func (m *meter) begin() {
	if m.tr != nil {
		m.tr.on.Store(true)
	}
	m.start = m.read()
}

func (m *meter) end() {
	m.acc.add(m.read().sub(m.start))
	if m.tr != nil {
		m.tr.on.Store(false)
	}
}

// outside runs fn, a check the benchmark makes between stretches of
// work, with the meter and the tracer stopped.
func (r *recorder) outside(fn func() error) error {
	if r.meter == nil {
		return fn()
	}
	r.meter.end()
	defer r.meter.begin()
	return fn()
}

// ops is the number of user ops that completed.
func (r *recorder) ops() int { return len(r.reads) + len(r.writes) }

// meanOp is the mean user-op latency in microseconds.
func (r *recorder) meanOp() float64 {
	var sum time.Duration
	for _, d := range r.reads {
		sum += d
	}
	for _, d := range r.writes {
		sum += d
	}
	return ratio(us(sum), float64(r.ops()))
}

// streamLen is the length of each closed-loop worker's op stream; a
// worker that reaches the end starts over, with fresh write versions.
const streamLen = 1 << 16

// closedLoop runs a fixed set of workers, each issuing its next op as
// soon as the previous one completes. Worker w owns the w-th contiguous
// share of the volume's slots, so the oracle needs no locking and every
// read has exactly one right answer.
type closedLoop struct {
	vol       volumeIO
	o         *oracle
	readSpan  string // span names for the call into the volume
	writeSpan string
	streams   [][]workload.Op
	base      []int64
	pos       []int
	// degraded classifies a read by its offset; nil means none are.
	degraded func(off int64) bool
}

func newClosedLoop(vol volumeIO, o *oracle, layer string, seed int64, workers int, readFraction float64) *closedLoop {
	c := &closedLoop{vol: vol, o: o, readSpan: layer + ".read", writeSpan: layer + ".write", pos: make([]int, workers)}
	share := int64(o.slots()/workers) * int64(o.slotSize)
	for w := 0; w < workers; w++ {
		spec := []workload.TenantSpec{{ReadFraction: readFraction, OpBytes: int64(o.slotSize)}}
		c.streams = append(c.streams, workload.Ops(seed*1000+int64(w), streamLen, share, spec))
		c.base = append(c.base, int64(w)*share)
	}
	return c
}

// run drives every worker until stop closes, then returns after all
// have finished their current op.
func (c *closedLoop) run(ctx context.Context, stop <-chan struct{}, rec *recorder, tr *tracer) {
	recs := make([]*recorder, len(c.streams))
	var wg sync.WaitGroup
	start := time.Now()
	for w := range c.streams {
		recs[w] = newRecorder(1 << 12)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c.worker(ctx, w, stop, recs[w], tr)
		}(w)
	}
	wg.Wait()
	rec.elapsed += time.Since(start)
	for _, r := range recs {
		rec.merge(r)
	}
}

func (c *closedLoop) worker(ctx context.Context, w int, stop <-chan struct{}, rec *recorder, tr *tracer) {
	o := c.o
	buf := make([]byte, o.slotSize)
	stream := c.streams[w]
	for {
		select {
		case <-stop:
			return
		default:
		}
		op := stream[c.pos[w]%len(stream)]
		c.pos[w]++
		off := c.base[w] + op.Off
		slot := int(off / int64(o.slotSize))
		tracing := tr != nil && tr.on.Load()
		var opStart time.Time
		if tracing {
			opStart = time.Now()
		}
		rec.attempted++
		var t0, t1 time.Time
		if op.Kind == workload.OpWrite {
			ver := o.ver[slot] + 1
			o.fill(buf, slot, ver)
			t0 = time.Now()
			_, err := c.vol.WriteAtCtx(ctx, buf, off)
			t1 = time.Now()
			o.ver[slot] = ver
			if err != nil {
				rec.fail(fmt.Errorf("write at %d: %w", off, err))
				continue
			}
			rec.push(&rec.writes, t1.Sub(t0))
			rec.writeBytes += int64(len(buf))
		} else {
			t0 = time.Now()
			_, err := c.vol.ReadAtCtx(ctx, buf, off)
			t1 = time.Now()
			if err == nil && !o.check(buf, slot, o.ver[slot]) {
				err = fmt.Errorf("slot %d does not hold version %d", slot, o.ver[slot])
			}
			if err != nil {
				rec.fail(fmt.Errorf("read at %d: %w", off, err))
				continue
			}
			rec.push(&rec.reads, t1.Sub(t0))
			rec.readBytes += int64(len(buf))
			if c.degraded != nil && c.degraded(off) {
				rec.push(&rec.degraded, t1.Sub(t0))
			}
		}
		if tracing {
			name := c.readSpan
			if op.Kind == workload.OpWrite {
				name = c.writeSpan
			}
			tr.recordOp(name, opStart.Sub(tr.epoch), t0.Sub(tr.epoch), t1.Sub(tr.epoch), tr.now())
		}
	}
}

// openLoop is a Poisson tenant: one dispatcher goroutine starts each op
// when it is due, whether or not earlier ops have finished, and each op
// is timed from when it was due. Ops on the same slot are serialized by
// a striped lock so the oracle stays exact; at the working-set sizes
// used, two in-flight ops share a stripe a few times per run.
type openLoop struct {
	vol       volumeIO
	o         *oracle
	readSpan  string
	writeSpan string
	ops       []workload.Op
	pos       int
	locks     [4096]sync.Mutex
	degraded  func(off int64) bool
	bufs      sync.Pool
	inflight  atomic.Int64
	mu        sync.Mutex // guards rec while a window runs
}

func newOpenLoop(vol volumeIO, o *oracle, layer string, seed int64, rate, readFraction float64) *openLoop {
	size := int64(o.slots()) * int64(o.slotSize)
	spec := []workload.TenantSpec{{ReadFraction: readFraction, OpBytes: int64(o.slotSize), MeanGap: 1 / rate}}
	l := &openLoop{vol: vol, o: o, readSpan: layer + ".read", writeSpan: layer + ".write",
		ops: workload.Ops(seed, streamLen, size, spec)}
	l.bufs.New = func() any { b := make([]byte, o.slotSize); return &b }
	return l
}

// run dispatches the arrival schedule from where it left off, each op
// when it is due, until stop closes, then waits for every op in flight.
func (l *openLoop) run(ctx context.Context, stop <-chan struct{}, rec *recorder, tr *tracer) {
	var wg sync.WaitGroup
	start := time.Now()
	anchor, a0 := start, l.ops[l.pos%len(l.ops)].Arrival
	for first := true; ; first = false {
		if l.pos%len(l.ops) == 0 && !first {
			// The stream wrapped: restart its clock from here.
			anchor, a0 = time.Now(), l.ops[0].Arrival
		}
		op := l.ops[l.pos%len(l.ops)]
		due := anchor.Add(time.Duration((op.Arrival - a0) * float64(time.Second)))
		if !sleepUntil(due, stop) {
			wg.Wait()
			rec.elapsed += time.Since(start)
			return
		}
		l.pos++
		l.mu.Lock()
		rec.push(&rec.late, time.Since(due))
		l.mu.Unlock()
		if n := l.inflight.Add(1); n > rec.inflightMax {
			rec.inflightMax = n
		}
		wg.Add(1)
		go func(op workload.Op, due time.Time) {
			defer wg.Done()
			defer l.inflight.Add(-1)
			l.issue(ctx, op, due, rec, tr)
		}(op, due)
	}
}

func (l *openLoop) issue(ctx context.Context, op workload.Op, due time.Time, rec *recorder, tr *tracer) {
	o := l.o
	bp := l.bufs.Get().(*[]byte)
	defer l.bufs.Put(bp)
	buf := *bp
	slot := int(op.Off / int64(o.slotSize))
	lk := &l.locks[slot%len(l.locks)]
	lk.Lock()
	var t0, t1 time.Time
	var err error
	if op.Kind == workload.OpWrite {
		ver := o.ver[slot] + 1
		o.fill(buf, slot, ver)
		t0 = time.Now()
		_, err = l.vol.WriteAtCtx(ctx, buf, op.Off)
		t1 = time.Now()
		o.ver[slot] = ver
	} else {
		t0 = time.Now()
		_, err = l.vol.ReadAtCtx(ctx, buf, op.Off)
		t1 = time.Now()
		if err == nil && !o.check(buf, slot, o.ver[slot]) {
			err = fmt.Errorf("slot %d does not hold version %d", slot, o.ver[slot])
		}
	}
	lk.Unlock()
	lat := t1.Sub(due)
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.attempted++
	switch {
	case err != nil:
		rec.fail(fmt.Errorf("%s at %d: %w", op.Kind, op.Off, err))
		return
	case op.Kind == workload.OpWrite:
		rec.push(&rec.writes, lat)
		rec.writeBytes += int64(len(buf))
	default:
		rec.push(&rec.reads, lat)
		rec.readBytes += int64(len(buf))
		if l.degraded != nil && l.degraded(op.Off) {
			rec.push(&rec.degraded, lat)
		}
	}
	if tr != nil && tr.on.Load() {
		name := l.readSpan
		if op.Kind == workload.OpWrite {
			name = l.writeSpan
		}
		tr.recordOp(name, due.Sub(tr.epoch), t0.Sub(tr.epoch), t1.Sub(tr.epoch), tr.now())
	}
}

// sleepUntil waits until t and reports true, or reports false as soon
// as stop closes.
func sleepUntil(t time.Time, stop <-chan struct{}) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-stop:
		return false
	case <-timer.C:
		return true
	}
}

// closeAfter returns a channel that closes after d.
func closeAfter(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	time.AfterFunc(d, func() { close(ch) })
	return ch
}
