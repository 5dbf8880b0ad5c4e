package cluster

import (
	"shiftedmirror/internal/raid"
)

// This file is the Volume's embedding surface: the exported read-only
// hooks a composing layer (internal/shard's multi-group volume) needs to
// route I/O and schedule rebuilds without reaching into Volume
// internals. The Volume is the only store of per-disk state; the
// shard's placement table, its rollup gauges and its rebuild queue are
// all derived from DiskStates when read.

// ElementSize returns the element (striping unit) size in bytes.
func (v *Volume) ElementSize() int64 { return v.elementSize }

// Stripes returns the stripe count per array.
func (v *Volume) Stripes() int { return v.stripes }

// N returns the data-disk count n of the n×n mirror geometry.
func (v *Volume) N() int { return v.n }

// DiskState is one disk slot's state as the volume holds it.
type DiskState struct {
	ID   raid.DiskID
	Addr string // backend currently serving the slot
	// Failed: content declared lost. Rebuilding: a RebuildDisk is in
	// flight.
	Failed, Rebuilding bool
	// Replacement mirrors NBS's IsReplacement: set when ReplaceBackend
	// attaches a backend to a failed disk, cleared when that disk's
	// rebuild completes. Fail and auto-fail start a disk without it.
	Replacement bool
	// Dead is the pool state machine's verdict for the backend: marked
	// dead with the probe window closed.
	Dead bool
	// Watermark is the disk's availability frontier in stripes: Stripes
	// when healthy, the rebuild watermark while failed.
	Watermark int64
}

// DiskStates returns every disk's state, read under one lock hold and
// sorted by role then index, matching arch.Disks().
func (v *Volume) DiskStates() []DiskState {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.diskStates()
}

// diskStates is DiskStates for a caller already holding v.mu.
func (v *Volume) diskStates() []DiskState {
	disks := v.arch.Disks()
	out := make([]DiskState, len(disks))
	for i, id := range disks {
		wm := int64(v.stripes)
		if v.failed[id] {
			wm = int64(v.progress[id])
		}
		out[i] = DiskState{
			ID:          id,
			Addr:        v.addrs[id],
			Failed:      v.failed[id],
			Rebuilding:  v.rebuilding[id],
			Replacement: v.replacement[id],
			Dead:        v.pools[id].isDead(),
			Watermark:   wm,
		}
	}
	return out
}
