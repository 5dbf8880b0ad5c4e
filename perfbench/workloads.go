package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"shiftedmirror"
	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// Geometry shared by every workload: the shifted arrangement at n=4
// with 4 KiB elements. Everything else is the default configuration:
// synchronous wire, no CRC, no hedging, no rebuild QoS.
const (
	n        = 4
	elemSize = 4096
	// stripeBytes is the logical size of one stripe (n×n elements).
	stripeBytes = n * n * elemSize
	workers     = 2
)

// fleet is the set of loopback backends of one system. In a traced run
// every store is wrapped for timing and every server shares one
// blockserver.Metrics.
type fleet struct {
	e       *env
	servers []*blockserver.Server
	metrics *blockserver.Metrics
	stores  storeCounters
}

func newFleet(e *env) *fleet {
	f := &fleet{e: e}
	if e.tr != nil {
		f.metrics = blockserver.NewMetrics()
	}
	return f
}

// serve starts a backend for s and returns its server and address.
func (f *fleet) serve(s blockserver.Store) (*blockserver.Server, string, error) {
	var opts []blockserver.ServerOption
	if f.e.tr != nil {
		s = wrapStore(s, &f.stores, f.e.tr)
		opts = append(opts, blockserver.WithMetrics(f.metrics))
	}
	srv := blockserver.NewStoreServer(s, opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	f.servers = append(f.servers, srv)
	return srv, addr.String(), nil
}

// memGroup serves one MemStore per disk of arch.
func (f *fleet) memGroup(arch *raid.Mirror, diskBytes int64) (map[raid.DiskID]string, error) {
	backends := map[raid.DiskID]string{}
	for _, id := range arch.Disks() {
		_, addr, err := f.serve(dev.NewMemStore(diskBytes))
		if err != nil {
			return nil, err
		}
		backends[id] = addr
	}
	return backends, nil
}

func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
}

// snap adds the fleet's server and store counters to c.
func (f *fleet) snap(c counters) {
	if f.metrics != nil {
		c.addServers(f.metrics.Snapshot())
	}
	c.addStores(&f.stores)
}

// dataDisk is the data-disk column of the element at logical offset
// off: elements are row-major within a stripe.
func dataDisk(off int64) int { return int(off/elemSize) % n }

// setupSmallMixed: one cluster volume over 8 MemStore backends, 64 MiB
// logical, 2 closed-loop workers doing aligned 4 KiB random ops, 70%
// reads, on a healthy volume.
func setupSmallMixed(e *env) (*system, error) {
	size := e.size(64 << 20)
	arch := shiftedmirror.NewShiftedMirror(n)
	f := newFleet(e)
	backends, err := f.memGroup(arch, size/n)
	if err != nil {
		f.close()
		return nil, err
	}
	vol, err := shiftedmirror.NewClusterVolume(arch, backends, shiftedmirror.WithGeometry(elemSize, int(size/stripeBytes)))
	if err != nil {
		f.close()
		return nil, err
	}
	shut := func() { vol.Close(); f.close() }
	o := newOracle(e.seed, size, elemSize)
	if err := o.prefill(context.Background(), vol); err != nil {
		shut()
		return nil, err
	}
	loop := newClosedLoop(vol, o, "cluster", e.seed, workers, 0.7)
	return &system{
		measure: func(ctx context.Context, d time.Duration, rec *recorder) error {
			loop.run(ctx, closeAfter(d), rec, e.tr)
			return nil
		},
		snap: func() counters {
			c := newCounters()
			c.addCluster(vol.Stats())
			f.snap(c)
			return c
		},
		check: func(ctx context.Context) error {
			if err := o.readBack(ctx, vol); err != nil {
				return err
			}
			_, err := vol.Scrub(ctx)
			return err
		},
		close: shut,
	}, nil
}

// setupStreamSharded: one sharded volume of 2 groups of n=4 (16
// MemStore backends), 128 MiB logical, 2 closed-loop workers doing
// 256 KiB ops, half reads. A 256 KiB op spans four 64 KiB stripes, and
// consecutive stripes live on alternating groups, so every op is split
// across both groups.
func setupStreamSharded(e *env) (*system, error) {
	const (
		groups = 2
		opSize = 256 << 10
	)
	size := e.size(128 << 20)
	arch := shiftedmirror.NewShiftedMirror(n)
	f := newFleet(e)
	var maps []map[raid.DiskID]string
	for g := 0; g < groups; g++ {
		backends, err := f.memGroup(arch, size/groups/n)
		if err != nil {
			f.close()
			return nil, err
		}
		maps = append(maps, backends)
	}
	vol, err := shiftedmirror.NewShardedVolume(arch, maps, shiftedmirror.WithGeometry(elemSize, int(size/groups/stripeBytes)))
	if err != nil {
		f.close()
		return nil, err
	}
	shut := func() { vol.Close(); f.close() }
	o := newOracle(e.seed, size, opSize)
	if err := o.prefill(context.Background(), vol); err != nil {
		shut()
		return nil, err
	}
	loop := newClosedLoop(vol, o, "shard", e.seed, workers, 0.5)
	return &system{
		measure: func(ctx context.Context, d time.Duration, rec *recorder) error {
			loop.run(ctx, closeAfter(d), rec, e.tr)
			return nil
		},
		snap: func() counters {
			c := newCounters()
			c.addShard(vol.Stats())
			f.snap(c)
			return c
		},
		check: func(ctx context.Context) error {
			if err := o.readBack(ctx, vol); err != nil {
				return err
			}
			_, err := vol.Scrub(ctx)
			return err
		},
		close:       shut,
		shardGroups: groups,
	}, nil
}

// setupRebuildUnderLoad is the paper's experiment: one cluster volume
// over FileStore backends, a 64 MiB disk image each, flushed by nobody
// (page cache on both sides). Each cycle fails data[0], replaces its
// backend with an empty FileStore and rebuilds it flat out while an
// open-loop Poisson tenant sends 4 KiB ops at 1000 ops/s, 90% reads,
// from the start of the rebuild until it returns, so every tenant op
// meets the rebuild whatever its speed.
// After each cycle the per-backend rebuild reads must equal the
// placement's RebuildSources element for element, and a full read-back
// and a scrub must come back clean.
func setupRebuildUnderLoad(e *env) (*system, error) {
	diskBytes := e.size(64 << 20)
	size := diskBytes * n
	stripes := int(size / stripeBytes)
	arch := shiftedmirror.NewShiftedMirror(n)
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	f := newFleet(e)
	// One FileStore-backed server per disk, its image named after the
	// disk. Opening an image truncates it, so a replacement starts empty
	// and the kernel drops the old image's dirty pages instead of writing
	// them back: the run holds one image per disk in the page cache and
	// stays off the device.
	type backend struct {
		srv *blockserver.Server
		fs  *dev.FileStore
	}
	disks := map[raid.DiskID]backend{}
	retire := func(b backend) {
		b.srv.Close()
		b.fs.Close()
	}
	attach := func(id raid.DiskID) (string, error) {
		fs, err := dev.OpenFileStore(filepath.Join(e.dir, id.String()), diskBytes)
		if err != nil {
			return "", err
		}
		srv, addr, err := f.serve(fs)
		if err != nil {
			fs.Close()
			return "", err
		}
		disks[id] = backend{srv, fs}
		return addr, nil
	}
	shutDisks := func() {
		for id, b := range disks {
			retire(b)
			os.Remove(filepath.Join(e.dir, id.String()))
		}
		f.close()
	}
	backends := map[raid.DiskID]string{}
	for _, id := range arch.Disks() {
		addr, err := attach(id)
		if err != nil {
			shutDisks()
			return nil, err
		}
		backends[id] = addr
	}
	vol, err := shiftedmirror.NewClusterVolume(arch, backends, shiftedmirror.WithGeometry(elemSize, stripes))
	if err != nil {
		shutDisks()
		return nil, err
	}
	shut := func() {
		vol.Close()
		shutDisks()
	}
	o := newOracle(e.seed, size, elemSize)
	if err := o.prefill(context.Background(), vol); err != nil {
		shut()
		return nil, err
	}
	tenant := newOpenLoop(vol, o, "cluster", e.seed, 1000, 0.9)
	tenant.degraded = func(off int64) bool { return dataDisk(off) == lost.Index }
	predicted := layout.RebuildSources(layout.PlacementOf(arch.Mirrors()...), 0, int64(stripes))

	cycle := func(ctx context.Context, rec *recorder) error {
		if err := vol.Fail(lost); err != nil {
			return err
		}
		old := disks[lost]
		addr, err := attach(lost)
		if err != nil {
			return err
		}
		if err := vol.ReplaceBackend(lost, addr); err != nil {
			return err
		}
		retire(old)
		before := vol.Stats()
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tenant.run(ctx, stop, rec, e.tr)
		}()
		start := time.Now()
		err = vol.RebuildDisk(ctx, lost)
		rec.rebuilds = append(rec.rebuilds, time.Since(start).Seconds())
		close(stop)
		<-done
		if err != nil {
			return fmt.Errorf("rebuild: %w", err)
		}
		after := vol.Stats()
		for i, want := range predicted {
			got := after.Backends[i].RebuildReadElements - before.Backends[i].RebuildReadElements
			if got != want {
				return fmt.Errorf("P1: backend %s served %d rebuild elements, placement predicts %d",
					after.Backends[i].Disk, got, want)
			}
		}
		return rec.outside(func() error {
			if err := o.readBack(ctx, vol); err != nil {
				return err
			}
			_, err := vol.Scrub(ctx)
			return err
		})
	}
	return &system{
		measure: func(ctx context.Context, d time.Duration, rec *recorder) error {
			for start := time.Now(); ; {
				if err := cycle(ctx, rec); err != nil {
					return err
				}
				if time.Since(start) >= d {
					return nil
				}
			}
		},
		snap: func() counters {
			c := newCounters()
			c.addCluster(vol.Stats())
			f.snap(c)
			return c
		},
		// Every cycle already ended with a read-back and a scrub.
		check:       func(context.Context) error { return nil },
		close:       shut,
		diskStripes: stripes,
		cycleBytes:  diskBytes,
	}, nil
}

// plainIO adapts a local store or Device to the context-first data
// path.
type plainIO struct {
	rw interface {
		io.ReaderAt
		io.WriterAt
	}
}

func (v plainIO) ReadAtCtx(_ context.Context, p []byte, off int64) (int, error) {
	return v.rw.ReadAt(p, off)
}

func (v plainIO) WriteAtCtx(_ context.Context, p []byte, off int64) (int, error) {
	return v.rw.WriteAt(p, off)
}

// setupLocalParity: the local Device over the shifted mirror with
// parity, 32 MiB, driven in process by 2 closed-loop workers doing
// 4 KiB ops, 70% reads. Each cycle runs the workers healthy, then with
// data:1 and mirror:2 failed (elements that lose both copies fall back
// to parity, paper §V), then while both disks are rebuilt, and ends
// with a full read-back and a scrub.
func setupLocalParity(e *env) (*system, error) {
	const (
		phase  = 300 * time.Millisecond
		failed = 1 // data disk failed in each cycle
	)
	size := e.size(32 << 20)
	d := shiftedmirror.NewDevice(shiftedmirror.NewShiftedMirrorWithParity(n), elemSize, int(size/stripeBytes))
	vol := plainIO{d}
	o := newOracle(e.seed, size, elemSize)
	if err := o.prefill(context.Background(), vol); err != nil {
		return nil, err
	}
	loop := newClosedLoop(vol, o, "dev", e.seed, workers, 0.7)
	lost := []raid.DiskID{{Role: raid.RoleData, Index: failed}, {Role: raid.RoleMirror, Index: 2}}

	cycle := func(ctx context.Context, rec *recorder) error {
		loop.degraded = nil
		loop.run(ctx, closeAfter(phase), rec, e.tr)
		for _, id := range lost {
			if err := d.FailDisk(id); err != nil {
				return err
			}
		}
		loop.degraded = func(off int64) bool { return dataDisk(off) == failed }
		loop.run(ctx, closeAfter(phase), rec, e.tr)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			loop.run(ctx, stop, rec, e.tr)
		}()
		start := time.Now()
		var err error
		for _, id := range lost {
			if err = d.Rebuild(id); err != nil {
				break
			}
		}
		rec.rebuilds = append(rec.rebuilds, time.Since(start).Seconds())
		close(stop)
		<-done
		if err != nil {
			return fmt.Errorf("rebuild: %w", err)
		}
		return rec.outside(func() error {
			if err := o.readBack(ctx, vol); err != nil {
				return err
			}
			return d.Scrub()
		})
	}
	return &system{
		measure: func(ctx context.Context, w time.Duration, rec *recorder) error {
			for start := time.Now(); ; {
				if err := cycle(ctx, rec); err != nil {
					return err
				}
				if time.Since(start) >= w {
					return nil
				}
			}
		},
		snap: func() counters {
			c := newCounters()
			c.addDevice(d.Health())
			return c
		},
		check:       func(context.Context) error { return nil },
		close:       func() {},
		diskStripes: int(size / stripeBytes),
		cycleBytes:  int64(len(lost)) * size / n,
	}, nil
}
