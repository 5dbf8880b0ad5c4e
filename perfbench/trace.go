package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"shiftedmirror/internal/blockserver"
)

// span is one timed interval of the traced run. Spans of one user op
// share Op and point at their parent; Store spans carry neither,
// because nothing carries a request identity across the wire.
type span struct {
	ID, Parent, Op int64
	Name           string
	Start, End     time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the traced run and writes them out
// when the run ends. Per-name totals are exact; the stored spans are
// capped so a long run cannot exhaust memory (dropped counts the rest).
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	max     int
	dropped int64
	totals  map[string]*spanTotal
}

type spanTotal struct {
	count int64
	sum   time.Duration
}

func newTracer(max int) *tracer {
	return &tracer{epoch: time.Now(), max: max, spans: make([]span, 0, max), totals: map[string]*spanTotal{}}
}

// now is the tracer clock.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// id mints a span or op identifier.
func (t *tracer) id() int64 { return t.nextID.Add(1) }

// record stores a finished span and folds it into its name's totals.
func (t *tracer) record(s span) {
	t.mu.Lock()
	t.recordLocked(s)
	t.mu.Unlock()
}

func (t *tracer) recordLocked(s span) {
	tot := t.totals[s.Name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[s.Name] = tot
	}
	tot.count++
	tot.sum += s.dur()
	if len(t.spans) < t.max {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// recordOp stores one user op: the root span covering the generator,
// the oracle and the call, and the child span covering only the call
// into the volume.
func (t *tracer) recordOp(name string, start, callStart, callEnd, end time.Duration) {
	op := t.id()
	root := span{ID: t.id(), Op: op, Name: "op", Start: start, End: end}
	child := span{ID: t.id(), Parent: root.ID, Op: op, Name: name, Start: callStart, End: callEnd}
	t.mu.Lock()
	t.recordLocked(child)
	t.recordLocked(root)
	t.mu.Unlock()
}

// mean is the mean duration of the spans with any of the given names,
// in microseconds.
func (t *tracer) mean(names ...string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	var sum time.Duration
	for _, name := range names {
		if tot := t.totals[name]; tot != nil {
			n += tot.count
			sum += tot.sum
		}
	}
	return ratio(us(sum), float64(n))
}

// dump writes the stored spans, one per line, to path.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintf(w, "# id parent op name start_ns end_ns (dropped %d)\n", t.dropped)
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d %d %d %s %d %d\n", s.ID, s.Parent, s.Op, s.Name, s.Start, s.End)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// storeCounters aggregates the Store calls of every wrapped store of a
// fleet.
type storeCounters struct {
	reads, writes, slices atomic.Int64
	busy                  atomic.Int64 // nanoseconds inside the store
	bytesWritten          atomic.Int64
}

// timedStore is the Store wrapper the traced run passes to
// blockserver.NewStoreServer: it counts and times every call and, while
// the tracer is on, records a parentless span per call.
type timedStore struct {
	inner blockserver.Store
	c     *storeCounters
	t     *tracer
}

// timedDirectStore keeps the zero-copy server path of a memory store.
type timedDirectStore struct {
	timedStore
	direct blockserver.DirectStore
}

// wrapStore returns s wrapped for timing, exposing Slice only when s
// itself does, so the server picks the same path it would without the
// wrapper.
func wrapStore(s blockserver.Store, c *storeCounters, t *tracer) blockserver.Store {
	ts := timedStore{inner: s, c: c, t: t}
	if d, ok := s.(blockserver.DirectStore); ok {
		return &timedDirectStore{timedStore: ts, direct: d}
	}
	return &ts
}

func (s *timedStore) observe(name string, start time.Duration, n *atomic.Int64) {
	end := s.t.now()
	n.Add(1)
	s.c.busy.Add(int64(end - start))
	s.t.record(span{ID: s.t.id(), Name: name, Start: start, End: end})
}

func (s *timedStore) ReadAt(p []byte, off int64) (int, error) {
	if !s.t.on.Load() {
		return s.inner.ReadAt(p, off)
	}
	start := s.t.now()
	n, err := s.inner.ReadAt(p, off)
	s.observe("store.read", start, &s.c.reads)
	return n, err
}

func (s *timedStore) WriteAt(p []byte, off int64) (int, error) {
	if !s.t.on.Load() {
		return s.inner.WriteAt(p, off)
	}
	start := s.t.now()
	n, err := s.inner.WriteAt(p, off)
	s.observe("store.write", start, &s.c.writes)
	s.c.bytesWritten.Add(int64(n))
	return n, err
}

func (s *timedStore) Size() int64 { return s.inner.Size() }

func (s *timedDirectStore) Slice(off, n int64) ([]byte, bool) {
	if !s.t.on.Load() {
		return s.direct.Slice(off, n)
	}
	start := s.t.now()
	b, ok := s.direct.Slice(off, n)
	s.observe("store.slice", start, &s.c.slices)
	return b, ok
}
