package cluster

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/faultinject"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// TestScrubOnlineMatchesScrub: on a healthy, idle volume the online
// pass is Scrub with different locking — same coverage, same verdict.
func TestScrubOnlineMatchesScrub(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(4))
	v, _ := newTestVolume(t, arch, 128, 8)
	randomPayload(t, v, 31)
	full, err := v.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	online, err := v.ScrubOnline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if online.ElementsCompared != full.ElementsCompared {
		t.Fatalf("online pass compared %d elements, Scrub compared %d",
			online.ElementsCompared, full.ElementsCompared)
	}
	if len(online.Skipped) != 0 {
		t.Fatalf("healthy volume skipped %v", online.Skipped)
	}
}

// TestScrubOnlineDetectsCorruption: the batch helpers carry the
// mismatch verdict through the online path too.
func TestScrubOnlineDetectsCorruption(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	v, backends := newTestVolume(t, arch, 64, 4)
	randomPayload(t, v, 32)
	// Flip one byte on a mirror backend behind the volume's back.
	id := raid.DiskID{Role: raid.RoleMirror, Index: 1}
	if _, err := backends.stores[id].WriteAt([]byte{0xff}, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ScrubOnline(context.Background()); !errors.Is(err, ErrScrubMismatch) {
		t.Fatalf("online scrub of corrupted replica = %v, want ErrScrubMismatch", err)
	}
}

// TestScrubOnlineCircularFromCursor: a pass starting mid-volume walks
// every stripe exactly once (wrapping) and parks the cursor back where
// it started — the resumable-sweep contract.
func TestScrubOnlineCircularFromCursor(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	v, _ := newTestVolume(t, arch, 64, 8) // RebuildBatch 2 → 4 batches
	randomPayload(t, v, 33)
	full, err := v.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	v.mu.Lock()
	v.scrubPos = 4 // as if a prior pass was cancelled halfway
	v.mu.Unlock()
	online, err := v.ScrubOnline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if online.ElementsCompared != full.ElementsCompared {
		t.Fatalf("mid-cursor pass compared %d elements, want full coverage %d",
			online.ElementsCompared, full.ElementsCompared)
	}
	v.mu.RLock()
	pos := v.scrubPos
	v.mu.RUnlock()
	if pos != 4 {
		t.Fatalf("cursor after a full circuit = %d, want back at 4", pos)
	}
}

// TestScrubOnlineCancelKeepsCursor: cancelling a throttled pass returns
// the context error with the cursor holding the progress made, so the
// next call resumes instead of restarting.
func TestScrubOnlineCancelKeepsCursor(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	backends := startBackends(t, arch, 64, 8)
	cfg := fastConfig(64, 8)
	cfg.RebuildQoSSLO = 5 * time.Millisecond
	cfg.RebuildQoSMinRate = 4 // stripes/sec
	cfg.RebuildQoSMaxRate = 4 // pinned: each 2-stripe batch costs ~500ms
	cfg.RebuildQoSInterval = 20 * time.Millisecond
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := make([]byte, v.Size())
	if _, err := v.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := v.ScrubOnline(ctx)
		done <- err
	}()
	// Let at least one batch land, then cancel mid-pass.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v.mu.RLock()
		pos := v.scrubPos
		v.mu.RUnlock()
		if pos > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no batch completed within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled pass = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled pass did not return")
	}
	v.mu.RLock()
	pos := v.scrubPos
	v.mu.RUnlock()
	if pos == 0 {
		t.Fatal("cursor lost the cancelled pass's progress")
	}
	// The next pass — unthrottled context, same cursor — finishes.
	if _, err := v.ScrubOnline(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestScrubOnlineDegradedOnFailedDisk mirrors Scrub's verdict: a failed
// disk is skipped and surfaces as ErrDegraded with a valid report.
func TestScrubOnlineDegradedOnFailedDisk(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	v, _ := newTestVolume(t, arch, 64, 4)
	randomPayload(t, v, 34)
	lost := raid.DiskID{Role: raid.RoleData, Index: 1}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	report, err := v.ScrubOnline(context.Background())
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("online scrub with a failed disk = %v, want ErrDegraded", err)
	}
	if len(report.Skipped) != 1 || report.Skipped[0] != lost {
		t.Fatalf("skipped = %v, want [%v]", report.Skipped, lost)
	}
	if report.ElementsCompared == 0 {
		t.Fatal("degraded pass compared nothing")
	}
}

// TestRebuildDiskWithQoSCompletes: an idle volume with the controller
// enabled rebuilds correctly and promptly (no user traffic → quiet
// windows ramp the slow-start rate to the cap), and the stats snapshot
// reports the controller.
func TestRebuildDiskWithQoSCompletes(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(4))
	backends := startBackends(t, arch, 128, 6)
	cfg := fastConfig(128, 6)
	cfg.RebuildQoSSLO = 10 * time.Millisecond
	cfg.RebuildQoSMinRate = 2
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 35)
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil {
		t.Fatal(err)
	}
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("post-rebuild content diverges under QoS")
	}
	st := v.Stats()
	if !st.QoS.Enabled {
		t.Fatal("stats do not report the QoS controller")
	}
	if st.QoS.SLO != 0.01 {
		t.Fatalf("stats SLO = %v, want 0.01s", st.QoS.SLO)
	}
	if st.QoS.RateStripesPerSec <= 0 {
		t.Fatalf("stats rate = %v, want positive", st.QoS.RateStripesPerSec)
	}
}

// TestRebuildDiskQoSFloorStillFinishes pins the forward-progress
// guarantee end to end: even pinned at a crawling floor rate the
// rebuild completes, and the wait accounting shows it was throttled.
func TestRebuildDiskQoSFloorStillFinishes(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	backends := startBackends(t, arch, 64, 4)
	cfg := fastConfig(64, 4)
	cfg.RebuildQoSSLO = 5 * time.Millisecond
	cfg.RebuildQoSMinRate = 8 // stripes/sec
	cfg.RebuildQoSMaxRate = 8 // pinned: 4 stripes ≈ 500ms of tokens
	cfg.RebuildQoSInterval = 20 * time.Millisecond
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 36)
	lost := raid.DiskID{Role: raid.RoleData, Index: 1}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil {
		t.Fatal(err)
	}
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("post-rebuild content diverges at the floor rate")
	}
	if v.Stats().QoS.WaitSeconds <= 0 {
		t.Fatal("pinned-rate rebuild recorded no token waits")
	}
}

// lockedStore serializes a MemStore behind a mutex and hides its Slice
// method, so the server goes through ReadAt/WriteAt. Tests that read an
// offset while another connection writes it need this: the race
// detector cannot see the ordering an in-process socket provides
// (DESIGN §16), and here the accesses are genuinely concurrent.
type lockedStore struct {
	mu sync.Mutex
	m  *dev.MemStore
}

func (s *lockedStore) ReadAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.ReadAt(p, off)
}

func (s *lockedStore) WriteAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.WriteAt(p, off)
}

func (s *lockedStore) Size() int64 { return s.m.Size() }

// startLockedBackends serves one lockedStore per disk, with a CRC
// sidecar when crc is set and fault injection on the disks in inject.
func startLockedBackends(t *testing.T, arch *raid.Mirror, elementSize int64, stripes int, crc bool, inject map[raid.DiskID]faultinject.Config) *testBackends {
	t.Helper()
	b := &testBackends{
		t:       t,
		addrs:   map[raid.DiskID]string{},
		servers: map[raid.DiskID]*blockserver.Server{},
		stores:  map[raid.DiskID]*dev.MemStore{},
	}
	var opts []blockserver.ServerOption
	if crc {
		opts = append(opts, blockserver.WithCRC(elementSize))
	}
	perDisk := int64(stripes) * int64(arch.N()) * elementSize
	for _, id := range arch.Disks() {
		store := dev.NewMemStore(perDisk)
		var serve blockserver.Store = &lockedStore{m: store}
		if cfg, ok := inject[id]; ok {
			serve = faultinject.Wrap(serve, cfg)
		}
		srv := blockserver.NewStoreServer(serve, opts...)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b.addrs[id] = addr.String()
		b.servers[id] = srv
		b.stores[id] = store
	}
	t.Cleanup(b.closeAll)
	return b
}

// TestScrubNoFalseMismatchUnderConcurrentWrites: a write fan-out runs
// under the shared lock, so a scrub gathering the same stripes can catch
// one copy updated and another not yet. The volume is consistent the
// whole time, so no pass may report ErrScrubMismatch — on the byte path
// and on the checksum path, for Scrub and ScrubOnline alike.
func TestScrubNoFalseMismatchUnderConcurrentWrites(t *testing.T) {
	const n, stripes, elementSize, passes = 4, 16, 4096, 50
	for _, crc := range []bool{false, true} {
		name := map[bool]string{false: "bytes", true: "crc"}[crc]
		t.Run(name, func(t *testing.T) {
			arch := raid.NewMirror(layout.NewShifted(n))
			backends := startLockedBackends(t, arch, elementSize, stripes, crc, nil)
			cfg := fastConfig(elementSize, stripes)
			cfg.WireCRC = crc
			v, err := New(arch, backends.addrs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(v.Close)
			randomPayload(t, v, 37)
			stripeSize := int64(n) * int64(n) * elementSize
			stop := make(chan struct{})
			writerErr := make(chan error, 1)
			go func() {
				buf := make([]byte, stripeSize)
				for i := 0; ; i++ {
					select {
					case <-stop:
						writerErr <- nil
						return
					default:
					}
					for j := range buf {
						buf[j] = byte(i + j)
					}
					if _, err := v.WriteAt(buf, int64(i%stripes)*stripeSize); err != nil {
						writerErr <- err
						return
					}
				}
			}()
			for pass := 0; pass < passes; pass++ {
				scrub := v.Scrub
				if pass%2 == 1 {
					scrub = v.ScrubOnline
				}
				if _, err := scrub(context.Background()); err != nil {
					close(stop)
					<-writerErr
					t.Fatalf("pass %d of a consistent volume under a concurrent writer: %v", pass, err)
				}
			}
			close(stop)
			if err := <-writerErr; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScrubDoesNotStallReadsBehindRebuild: Go's RWMutex parks new
// readers behind a waiting writer, so a scrub holding the shared lock
// for its whole pass would hold every user read behind a rebuild slice
// waiting on the exclusive lock until the pass ends. Scrub must lock one
// batch at a time: a read issued while a rebuild slice waits behind the
// pass completes before the pass returns. One read-throttled backend
// keeps the pass long; the read itself touches only unthrottled disks.
func TestScrubDoesNotStallReadsBehindRebuild(t *testing.T) {
	const n, stripes, elementSize = 4, 32, 4096
	arch := raid.NewMirror(layout.NewShifted(n))
	slow := raid.DiskID{Role: raid.RoleData, Index: 1}
	backends := startLockedBackends(t, arch, elementSize, stripes, false,
		map[raid.DiskID]faultinject.Config{slow: {ReadDelay: 5 * time.Millisecond}})
	v, err := New(arch, backends.addrs, fastConfig(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 38)
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}

	slowReqs := func() int64 { return v.stats.perDisk[slow].pool.requests.Load() }
	before := slowReqs()
	scrubDone := make(chan error, 1)
	go func() {
		_, err := v.Scrub(context.Background())
		scrubDone <- err
	}()
	// The pass is under way once it has asked the throttled backend for
	// its first batch.
	for slowReqs() == before {
		time.Sleep(100 * time.Microsecond)
	}
	rebuildDone := make(chan error, 1)
	go func() { rebuildDone <- v.RebuildDisk(context.Background(), lost) }()
	// TryRLock fails once the rebuild holds or waits for the exclusive
	// lock: from then on a new reader queues behind it.
	for v.mu.TryRLock() {
		v.mu.RUnlock()
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case err := <-scrubDone:
		t.Fatalf("scrub pass ended (%v) before a rebuild slice queued behind it", err)
	default:
	}

	// Element (stripe 0, row 0) of data[2]: healthy and unthrottled.
	off := int64(2) * elementSize
	got := make([]byte, elementSize)
	if _, err := v.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	select {
	case <-scrubDone:
		t.Fatal("user read completed only after the scrub pass returned")
	default:
	}
	if !bytes.Equal(got, payload[off:off+elementSize]) {
		t.Fatal("read returned wrong bytes")
	}
	if err := <-scrubDone; err != nil && !errors.Is(err, ErrDegraded) {
		t.Fatal(err)
	}
	if err := <-rebuildDone; err != nil {
		t.Fatal(err)
	}
}
