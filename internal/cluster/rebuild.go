package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

// RebuildDisk reconstructs a failed disk's contents onto its (fresh)
// backend and returns the disk to service — the paper's one-access
// reconstruction over TCP. Each stripe slice is recovered in one pass:
// the lost elements' replicas are gathered with per-backend OpReadV
// batches running concurrently, then written to the replacement backend
// through its pool. Under the shifted arrangement a data disk's n
// replicas-per-stripe live on n distinct mirror backends, so the fetch
// is one parallel access across the whole cluster; under the
// traditional arrangement every replica lives on the single twin
// backend and the same loop drains it sequentially at one disk's
// bandwidth. The rebuild is incremental: the device lock is released
// between stripe slices so reads and writes keep flowing, and rebuilt
// stripes are served from the replacement backend immediately. Each
// slice starts at the current watermark, so when a write that missed the
// replacement backend rolls the watermark back (see WriteAt), the
// affected stripes are recovered again before the rebuild can finish.
// Only one rebuild may run per disk; a second concurrent call returns
// ErrRebuildInProgress (wrapped).
//
// Cancelling ctx stops the rebuild promptly — between slices, and
// mid-slice by interrupting the in-flight gathers and writes — and
// returns ctx's error. The watermark keeps whatever slices completed:
// a later RebuildDisk call resumes from there, and rebuilt stripes stay
// served from the replacement backend in the meantime.
func (v *Volume) RebuildDisk(ctx context.Context, id raid.DiskID) error {
	v.mu.Lock()
	if v.pools[id] == nil {
		v.mu.Unlock()
		return fmt.Errorf("cluster: unknown disk %v", id)
	}
	if !v.failed[id] {
		v.mu.Unlock()
		return fmt.Errorf("cluster: disk %v is not failed", id)
	}
	if v.rebuilding[id] {
		v.mu.Unlock()
		return fmt.Errorf("%w: disk %v", ErrRebuildInProgress, id)
	}
	v.rebuilding[id] = true
	v.mu.Unlock()
	v.stats.rebuildActive.Add(1)
	defer func() {
		v.stats.rebuildActive.Add(-1)
		v.mu.Lock()
		delete(v.rebuilding, id)
		v.mu.Unlock()
	}()
	start := time.Now()
	var rebuilt int64
	for {
		if err := ctx.Err(); err != nil {
			v.trace(obs.Event{Op: "rebuild", Target: id.String(), Bytes: rebuilt, Dur: time.Since(start), Err: err})
			return err
		}
		// QoS throttle: pay for the next slice in stripes before taking
		// the exclusive lock, so a throttled rebuild parks here with user
		// I/O flowing, never inside the slice.
		if err := v.qos.acquire(ctx, v.nextSliceStripes(id)); err != nil {
			v.trace(obs.Event{Op: "rebuild", Target: id.String(), Bytes: rebuilt, Dur: time.Since(start), Err: err})
			return err
		}
		done, n, err := v.rebuildSlice(ctx, id)
		rebuilt += n
		if err != nil {
			v.trace(obs.Event{Op: "rebuild", Target: id.String(), Bytes: rebuilt, Dur: time.Since(start), Err: err})
			return err
		}
		if done {
			break
		}
	}
	elapsed := time.Since(start)
	v.stats.rebuilds.Inc()
	v.stats.rebuildBytes.Add(rebuilt)
	v.stats.rebuildNanos.Add(elapsed.Nanoseconds())
	v.trace(obs.Event{Op: "rebuild", Target: id.String(), Bytes: rebuilt, Dur: elapsed})
	return nil
}

// rebuildSlice recovers the next RebuildBatch stripes past the watermark
// under the exclusive lock: fetch every lost element from surviving
// replicas (fanning out per backend, with failover), then write the
// recovered bytes to the replacement backend. The watermark only
// advances once the writes are durable there, and the final slice
// returns the disk to service under the same lock hold — so a failed
// user write can never slip between "last stripe recovered" and "disk
// marked clean".
func (v *Volume) rebuildSlice(ctx context.Context, id raid.DiskID) (done bool, written int64, err error) {
	start := time.Now()
	defer func() { v.stats.sliceLat.Observe(time.Since(start)) }()
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.failed[id] {
		return false, 0, fmt.Errorf("cluster: disk %v is not failed", id)
	}
	s0 := v.progress[id]
	s1 := s0 + v.cfg.RebuildBatch
	if s1 > v.stripes {
		s1 = v.stripes
	}
	perStripe := v.n // lost elements per stripe on one disk
	count := (s1 - s0) * perStripe
	buf := make([]byte, int64(count)*v.elementSize)
	spans := make([]*span, 0, count)
	ops := make([]writeOp, 0, count)
	i := 0
	pf := v.poolIndex(id)
	for stripe := s0; stripe < s1; stripe++ {
		for r := 0; r < v.n; r++ {
			// The content of target slot (id, row r) is whatever logical
			// element the placement stores there in this stripe.
			// fetchSpans routes to surviving copies only (the target
			// disk is failed, so it is never a source).
			dataAddr, _ := v.place.Owner(int64(stripe), layout.Slot{Disk: pf, Row: r})
			b := buf[int64(i)*v.elementSize : int64(i+1)*v.elementSize]
			spans = append(spans, &span{
				stripe: stripe, disk: dataAddr.Disk, row: dataAddr.Row, buf: b,
			})
			ops = append(ops, writeOp{id: id, off: v.storeOffset(stripe, r), data: b, elem: i, stripe: stripe})
			i++
		}
	}
	if err := v.fetchSpans(ctx, spans, fetchRebuild); err != nil {
		return false, 0, err
	}
	counts := make([]atomic.Int64, count)
	broken, err := v.runWrites(ctx, ops, counts)
	if err != nil {
		return false, 0, err
	}
	if cerr := ctx.Err(); cerr != nil {
		// Cancelled mid-slice: the watermark stays put, so this slice is
		// recovered again when the rebuild resumes.
		return false, 0, cerr
	}
	if len(broken) > 0 {
		return false, 0, fmt.Errorf("cluster: replacement backend %s for %v not accepting writes", v.addrs[id], id)
	}
	v.progress[id] = s1
	v.stats.rebuildStripes.Add(int64(s1 - s0))
	v.stats.perDisk[id].watermark.Set(int64(s1))
	v.trace(obs.Event{Op: "rebuild_slice", Target: id.String(), Bytes: int64(len(buf)), Dur: time.Since(start)})
	if s1 >= v.stripes {
		delete(v.failed, id)
		delete(v.progress, id)
		delete(v.replacement, id)
		return true, int64(len(buf)), nil
	}
	return false, int64(len(buf)), nil
}

// nextSliceStripes returns how many stripes the next rebuild slice for
// id will recover — the QoS cost paid before taking the exclusive lock.
func (v *Volume) nextSliceStripes(id raid.DiskID) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if !v.failed[id] {
		return 0
	}
	n := v.stripes - v.progress[id]
	if n > v.cfg.RebuildBatch {
		n = v.cfg.RebuildBatch
	}
	if n < 0 {
		n = 0
	}
	return n
}
