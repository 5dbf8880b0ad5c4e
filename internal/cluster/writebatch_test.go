package cluster

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// startMetricBackends is startBackends with a blockserver.Metrics
// attached per server, so tests can count wire frames per backend.
func startMetricBackends(t *testing.T, arch *raid.Mirror, elementSize int64, stripes int) (*testBackends, map[raid.DiskID]*blockserver.Metrics) {
	t.Helper()
	b := &testBackends{
		t:       t,
		addrs:   map[raid.DiskID]string{},
		servers: map[raid.DiskID]*blockserver.Server{},
		stores:  map[raid.DiskID]*dev.MemStore{},
	}
	metrics := map[raid.DiskID]*blockserver.Metrics{}
	perDisk := int64(stripes) * int64(arch.N()) * elementSize
	for _, id := range arch.Disks() {
		store := dev.NewMemStore(perDisk)
		m := blockserver.NewMetrics()
		srv := blockserver.NewStoreServer(store, blockserver.WithMetrics(m))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b.addrs[id] = addr.String()
		b.servers[id] = srv
		b.stores[id] = store
		metrics[id] = m
	}
	t.Cleanup(b.closeAll)
	return b, metrics
}

// frameCounts sums, across all backends, the OpWrite and OpWriteV
// frames the servers actually handled.
func frameCounts(metrics map[raid.DiskID]*blockserver.Metrics) (writes, writevs int64) {
	for _, m := range metrics {
		s := m.Snapshot()
		writes += s.Ops["write"].Ops
		writevs += s.Ops["writev"].Ops
	}
	return writes, writevs
}

// TestFullStripeWriteFrameCount makes the write fan-out's frame bound
// deterministic: a full-stripe write at n=5 must cost at most one wire
// frame per replica backend (2n frames for 2n² element copies).
func TestFullStripeWriteFrameCount(t *testing.T) {
	const n, stripes, elementSize = 5, 2, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	stripeBytes := make([]byte, int64(n)*int64(n)*elementSize)
	for i := range stripeBytes {
		stripeBytes[i] = byte(i)
	}
	copies := int64(2 * n * n) // data element + one mirror replica each

	t.Run("batched", func(t *testing.T) {
		backends, metrics := startMetricBackends(t, arch, elementSize, stripes)
		v, err := New(arch, backends.addrs, fastConfig(elementSize, stripes))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(v.Close)
		if _, err := v.WriteAt(stripeBytes, 0); err != nil {
			t.Fatal(err)
		}
		writes, writevs := frameCounts(metrics)
		if writes != 0 {
			t.Fatalf("batched write path issued %d bare OpWrite frames", writes)
		}
		if writevs > int64(2*n) {
			t.Fatalf("full-stripe write cost %d writev frames, want <= %d", writevs, 2*n)
		}
		st := v.Stats()
		if st.WriteBatches != writevs {
			t.Fatalf("volume counted %d batches, servers saw %d", st.WriteBatches, writevs)
		}
		if st.WriteBatchElements != copies {
			t.Fatalf("batches carried %d element copies, want %d", st.WriteBatchElements, copies)
		}
		// Every backend took its whole share in one frame: each of the 2n
		// disks holds n element copies of the stripe.
		for id, m := range metrics {
			s := m.Snapshot()
			if got := s.Ops["writev"].Ops; got != 1 {
				t.Fatalf("backend %v handled %d writev frames, want 1", id, got)
			}
		}
	})
}

// TestRebuildWriteBackBatched pins the rebuild's wire cost: each
// recovered slice lands on the replacement backend as one coalesced
// OpWriteV frame (the slice's elements are consecutive subslices of one
// buffer bound for consecutive store rows), never as per-element
// OpWrite round trips.
func TestRebuildWriteBackBatched(t *testing.T) {
	const n, stripes, elementSize = 3, 4, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	backends, _ := startMetricBackends(t, arch, elementSize, stripes)
	cfg := fastConfig(elementSize, stripes)
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 41)
	lost := raid.DiskID{Role: raid.RoleData, Index: 1}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	// Replacement backend with its own metrics: only rebuild write-back
	// traffic lands there.
	store := dev.NewMemStore(v.DiskSize())
	m := blockserver.NewMetrics()
	srv := blockserver.NewStoreServer(store, blockserver.WithMetrics(m))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := v.ReplaceBackend(lost, addr.String()); err != nil {
		t.Fatal(err)
	}
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	slices := (stripes + cfg.RebuildBatch - 1) / cfg.RebuildBatch
	if got := s.Ops["write"].Ops; got != 0 {
		t.Fatalf("rebuild write-back issued %d bare OpWrite frames", got)
	}
	if got := s.Ops["writev"].Ops; got != int64(slices) {
		t.Fatalf("rebuild write-back used %d writev frames, want %d (one per slice)", got, slices)
	}
	want := expectedDiskImage(arch, lost, payload, elementSize, stripes)
	got := make([]byte, len(want))
	if _, err := store.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("batched rebuild write-back diverges from the local rebuild image")
	}
}

// TestConcurrentWriters documents the post-batching lock scope (see
// DESIGN.md §11): writers run under the shared lock, so disjoint
// concurrent writes are safe and byte-exact, while overlapping writes
// race per element copy like on a raw block device — callers that
// overlap must serialize themselves. Run under -race, this also proves
// the fan-out itself is data-race-free.
func TestConcurrentWriters(t *testing.T) {
	const n, stripes, elementSize = 3, 4, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	v, _ := newTestVolume(t, arch, elementSize, stripes)
	payload := make([]byte, v.Size())
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	// Split the volume into element-aligned chunks, one writer each.
	// Every writer lands its chunk in two unaligned pieces, so the
	// concurrent paths include the batched fan-out AND the RMW pre-read
	// (the torn element stays inside the writer's own chunk).
	const writers = 8
	chunkElems := int(v.Size()/elementSize) / writers
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		lo := int64(w*chunkElems) * elementSize
		hi := lo + int64(chunkElems)*elementSize
		if w == writers-1 {
			hi = v.Size()
		}
		wg.Add(1)
		go func(w int, lo, hi int64) {
			defer wg.Done()
			split := lo + (hi-lo)/2 + 17 // off the element grid
			if _, err := v.WriteAt(payload[lo:split], lo); err != nil {
				errs[w] = err
				return
			}
			_, errs[w] = v.WriteAt(payload[split:hi], split)
		}(w, lo, hi)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("disjoint concurrent writes diverged")
	}
	rep, err := v.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("scrub after concurrent writes skipped %v", rep.Skipped)
	}
}

// TestBackendKilledMidBatchRollsWatermarkToBatchLowStripe kills a
// backend so a multi-stripe OpWriteV batch dies on the wire as a whole:
// the server may have applied any prefix, so the rebuild watermark must
// retreat to the LOWEST stripe carried by the batch — rolling back only
// to the last acked frame would leave rebuilt-but-stale stripes in
// service. The restarted rebuild then converges byte-identically.
func TestBackendKilledMidBatchRollsWatermarkToBatchLowStripe(t *testing.T) {
	const n, stripes, elementSize = 3, 4, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	v, backends := newTestVolume(t, arch, elementSize, stripes)
	payload := randomPayload(t, v, 43)
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	// Stage the mid-rebuild state directly (the backend's content is
	// correct, the watermark covers every stripe, the disk is not yet
	// back in service), as TestFailedWriteBelowWatermarkRollsBack does.
	v.mu.Lock()
	v.failed[lost] = true
	v.progress[lost] = stripes
	v.mu.Unlock()
	addr := backends.addrs[lost]
	store := backends.stores[lost]
	backends.kill(lost)
	// One write spanning stripes 1..2: the lost backend's share is a
	// single coalesced batch carrying both stripes.
	stripeSize := int64(n) * int64(n) * elementSize
	off := stripeSize
	patch := bytes.Repeat([]byte{0xAB}, int(2*stripeSize))
	if _, err := v.WriteAt(patch, off); err != nil {
		t.Fatal(err)
	}
	copy(payload[off:], patch)
	v.mu.RLock()
	progress, stillFailed := v.progress[lost], v.failed[lost]
	v.mu.RUnlock()
	if !stillFailed {
		t.Fatal("disk no longer marked failed after the dead-batch write")
	}
	if progress != 1 {
		t.Fatalf("watermark = %d, want 1 (lowest stripe in the dead batch)", progress)
	}
	// Both missed stripes are served from replicas, not the stale copy.
	check := make([]byte, 2*stripeSize)
	if _, err := v.ReadAt(check, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(check, patch) {
		t.Fatal("read served a stale below-watermark element")
	}
	// The backend reboots with its stale disk; the rebuild restarts from
	// the rolled-back watermark and re-recovers both missed stripes.
	srv, err := restartServer(store, addr)
	if err != nil {
		t.Fatal(err)
	}
	backends.servers[lost] = srv
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := v.RebuildDisk(context.Background(), lost)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond) // dead-marked pool: wait out the probe window
	}
	want := expectedDiskImage(arch, lost, payload, elementSize, stripes)
	got := make([]byte, len(want))
	if _, err := store.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("rebuild left a missed stripe stale on the replacement backend")
	}
	full := make([]byte, v.Size())
	if _, err := v.ReadAt(full, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, payload) {
		t.Fatal("post-rebuild read diverges from payload")
	}
}
