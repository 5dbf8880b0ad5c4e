package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"shiftedmirror"
	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/obs"
)

// ladderOps is the number of reads and of writes timed at each rung.
const ladderOps = 4000

// ladder times direct calls at each rung of the data path at the
// small-mixed op shape: one caller (queue depth 1), aligned 4 KiB
// reads and writes. Every rung sees the same offsets, so the cost of a
// layer is the difference between two adjacent rungs.
func ladder(ctx context.Context, e *env, m metricSet, rec *recorder) error {
	const size = 4 << 20 // logical bytes at every rung
	arch := shiftedmirror.NewShiftedMirror(n)

	rung(ctx, m, rec, "store", e.seed, size, plainIO{dev.NewMemStore(size)})

	// Rungs run untraced: they time the layers, not the tracer.
	f := newFleet(&env{})
	defer f.close()
	_, addr, err := f.serve(dev.NewMemStore(size))
	if err != nil {
		return err
	}
	client, err := blockserver.Dial(addr)
	if err != nil {
		return err
	}
	defer client.Close()
	rung(ctx, m, rec, "wire", e.seed, size, &vecIO{c: client, vecs: make([]blockserver.Vec, 1), bufs: make([][]byte, 1)})

	geometry := shiftedmirror.WithGeometry(elemSize, size/stripeBytes)
	backends, err := f.memGroup(arch, size/n)
	if err != nil {
		return err
	}
	vol, err := shiftedmirror.NewClusterVolume(arch, backends, geometry)
	if err != nil {
		return err
	}
	defer vol.Close()
	rung(ctx, m, rec, "cluster", e.seed, size, vol)

	if backends, err = f.memGroup(arch, size/n); err != nil {
		return err
	}
	sharded, err := shiftedmirror.NewShardedVolume(arch, []map[shiftedmirror.DiskID]string{backends}, geometry)
	if err != nil {
		return err
	}
	defer sharded.Close()
	rung(ctx, m, rec, "shard", e.seed, size, sharded)
	return nil
}

// vecIO drives a blockserver client through one-range ReadV/WriteV
// frames, the opcodes the cluster volume sends.
type vecIO struct {
	c    *blockserver.Client
	vecs []blockserver.Vec
	bufs [][]byte
}

func (v *vecIO) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	v.vecs[0], v.bufs[0] = blockserver.Vec{Off: off, Len: len(p)}, p
	return len(p), v.c.ReadVCtx(ctx, v.vecs, v.bufs)
}

func (v *vecIO) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	v.vecs[0], v.bufs[0] = blockserver.Vec{Off: off, Len: len(p)}, p
	return v.c.WriteVCtx(ctx, v.vecs, v.bufs)
}

// rung writes a seeded sequence of slots and reads each back right
// after, checking it, and reports the median read and write latency.
func rung(ctx context.Context, m metricSet, rec *recorder, name string, seed int64, size int64, v volumeIO) {
	o := newOracle(seed, size, elemSize)
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, elemSize)
	reads := make([]time.Duration, 0, ladderOps)
	writes := make([]time.Duration, 0, ladderOps)
	for i := 0; i < ladderOps+ladderOps/10; i++ {
		slot := rng.Intn(o.slots())
		off := int64(slot) * elemSize
		o.ver[slot]++
		o.fill(buf, slot, o.ver[slot])
		rec.attempted += 2
		t0 := time.Now()
		_, err := v.WriteAtCtx(ctx, buf, off)
		t1 := time.Now()
		if err == nil {
			_, err = v.ReadAtCtx(ctx, buf, off)
		}
		t2 := time.Now()
		if err == nil && !o.check(buf, slot, o.ver[slot]) {
			err = fmt.Errorf("slot %d does not hold version %d", slot, o.ver[slot])
		}
		if err != nil {
			rec.fail(fmt.Errorf("ladder %s: %w", name, err))
			continue
		}
		if i >= ladderOps/10 { // the first tenth warms connections and caches
			writes = append(writes, t1.Sub(t0))
			reads = append(reads, t2.Sub(t1))
		}
	}
	m.set("ladder."+name+".read_us", us(obs.NearestRankDur(obs.SortDurations(reads), 0.5)), "us")
	m.set("ladder."+name+".write_us", us(obs.NearestRankDur(obs.SortDurations(writes), 0.5)), "us")
}
