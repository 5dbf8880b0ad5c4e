package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

// ScrubReport summarizes a Scrub pass's coverage, so "clean" can be told
// apart from "compared nothing".
type ScrubReport struct {
	// ElementsCompared counts replica elements checked against their
	// data element.
	ElementsCompared int64
	// ChecksumCompared is the subset of ElementsCompared verified by
	// CRC-32C comparison (the WireCRC OpCrcV fast path, which ships 4
	// bytes per element instead of the element itself). The server
	// recomputes each checksum from the store, so silent rot is still
	// caught; only identical corruption of both copies can hide.
	ChecksumCompared int64
	// Skipped lists disks whose content went (at least partly)
	// unverified: failed disks awaiting rebuild, and backends that were
	// unreachable for at least one stripe batch.
	Skipped []raid.DiskID
}

// Scrub streams every healthy disk's content stripe-batch by
// stripe-batch and verifies each replica against its data element,
// returning ErrScrubMismatch (wrapped with the first divergence) on
// inconsistency. Store-level (remote) read errors are returned — they
// mean a misconfigured backend, not a dead one. Disks that are failed or
// whose backend is unreachable are skipped, listed in the report, and
// surfaced as a wrapped ErrDegraded alongside the (still valid) report:
// the pass compared what it could, but "clean" cannot be claimed for
// the whole volume. ctx cancels the pass between reads and mid-frame.
//
// With Config.WireCRC the pass compares checksums instead of bytes:
// each batch ships one OpCrcV per disk (4 bytes per element on the
// wire, recomputed server-side so rot is still caught) rather than the
// disks' full content. A backend that did not negotiate the CRC
// feature flips the rest of the pass back to byte comparison — mixing
// modes within a batch would make coverage claims incoherent.
//
// Scrub is the walk ScrubOnline runs, without a budget: each batch is
// verified under its own short read-lock hold, so user I/O and rebuild
// slices interleave between batches, and the pass starts from and
// advances the same resumable cursor.
func (v *Volume) Scrub(ctx context.Context) (ScrubReport, error) {
	return v.scrub(ctx, nil)
}

// ScrubOnline is Scrub for a volume that is actively serving: when the
// QoS controller is enabled (WithRebuildQoS), every batch first buys its
// stripes from the same token bucket that throttles RebuildDisk, so
// scrub and rebuild back off together when user-read p99 pressure
// rises. Without the controller it is Scrub.
func (v *Volume) ScrubOnline(ctx context.Context) (ScrubReport, error) {
	return v.scrub(ctx, v.qos)
}

// scrub is the one verification walk. It visits the volume circularly
// from a persistent cursor (sm_cluster_scrub_cursor_stripes), one
// stripe batch at a time, paying budget (nil: unlimited) for each batch
// before taking the lock. A cancelled or failed pass keeps its
// position, and the next call picks up there instead of re-verifying
// the stripes it already covered.
//
// One full circuit of the volume constitutes a pass: the report covers
// every stripe exactly once, the scrub counters roll, and skipped disks
// surface as ErrDegraded. On cancellation the partial report and ctx's
// error are returned. The pass as a whole is not a snapshot: content
// written after a batch was verified is verified by the next pass.
func (v *Volume) scrub(ctx context.Context, budget *qosController) (ScrubReport, error) {
	var report ScrubReport
	v.mu.RLock()
	start := v.scrubPos
	v.mu.RUnlock()
	batch := v.cfg.RebuildBatch
	numBatches := (v.stripes + batch - 1) / batch
	firstBatch := (start / batch) % numBatches
	skipped := map[raid.DiskID]bool{}
	crc := v.cfg.WireCRC
	for k := 0; k < numBatches; k++ {
		s0 := (firstBatch + k) % numBatches * batch
		s1 := min(s0+batch, v.stripes)
		if err := budget.acquire(ctx, s1-s0); err != nil {
			return report, err
		}
		if err := v.scrubBatch(ctx, &report, skipped, &crc, s0, s1); err != nil {
			return report, err
		}
		next := s1
		if next >= v.stripes {
			next = 0
		}
		v.mu.Lock()
		v.scrubPos = next
		v.mu.Unlock()
		v.stats.scrubCursor.Set(int64(next))
	}
	for id := range skipped {
		report.Skipped = append(report.Skipped, id)
	}
	sortDisks(report.Skipped)
	v.stats.scrubs.Inc()
	v.stats.scrubElements.Add(report.ElementsCompared)
	v.stats.scrubCRCElements.Add(report.ChecksumCompared)
	v.stats.scrubSkipped.Add(int64(len(report.Skipped)))
	v.trace(obs.Event{Op: "scrub", Bytes: report.ElementsCompared * v.elementSize})
	if len(report.Skipped) > 0 {
		return report, fmt.Errorf("%w: scrub skipped %d of %d disks", ErrDegraded, len(report.Skipped), len(v.arch.Disks()))
	}
	return report, nil
}

// scrubBatch verifies stripes [s0, s1) under the shared lock. Write
// fan-outs run under the shared lock too, so a write in flight can
// leave one copy updated and another not yet: a batch that mismatches
// is gathered and compared again under the exclusive lock, where no
// fan-out can be in flight, and only a mismatch that survives is
// reported. Clean batches pay nothing extra.
func (v *Volume) scrubBatch(ctx context.Context, report *ScrubReport, skipped map[raid.DiskID]bool, crc *bool, s0, s1 int) error {
	v.mu.RLock()
	compared, err := v.verifyBatch(ctx, skipped, crc, s0, s1)
	v.mu.RUnlock()
	if errors.Is(err, ErrScrubMismatch) {
		v.mu.Lock()
		compared, err = v.verifyBatch(ctx, skipped, crc, s0, s1)
		v.mu.Unlock()
	}
	report.ElementsCompared += compared
	if *crc {
		report.ChecksumCompared += compared
	}
	return err
}

// verifyBatch gathers one stripe batch from every disk that can serve
// it and compares each replica with its data element, returning how
// many replica elements matched. With *crc it compares checksums; a
// backend answering ErrNoCRC clears *crc and the batch is redone
// byte-for-byte. Caller holds v.mu.
func (v *Volume) verifyBatch(ctx context.Context, skipped map[raid.DiskID]bool, crc *bool, s0, s1 int) (int64, error) {
	if *crc {
		img, err := v.gatherBatch(ctx, skipped, true, s0, s1)
		if !errors.Is(err, blockserver.ErrNoCRC) {
			if err != nil {
				return 0, err
			}
			return v.compareBatch(img, 4, s0, s1, " (checksum)")
		}
		// A backend predates or did not enable the CRC feature.
		*crc = false
	}
	img, err := v.gatherBatch(ctx, skipped, false, s0, s1)
	if err != nil {
		return 0, err
	}
	return v.compareBatch(img, v.elementSize, s0, s1, "")
}

// gatherBatch reads stripes [s0, s1) from every disk that can serve part
// of them, one disk per goroutine: each element's bytes, or with crc
// its CRC-32C as 4 little-endian bytes. Failed disks and unreachable
// backends are marked skipped and left out of the image.
func (v *Volume) gatherBatch(ctx context.Context, skipped map[raid.DiskID]bool, crc bool, s0, s1 int) (map[raid.DiskID][]byte, error) {
	elems := (s1 - s0) * v.n
	off := int64(s0) * int64(v.n) * v.elementSize
	img := map[raid.DiskID][]byte{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var remoteErr error
	noCRC := false
	for _, id := range v.arch.Disks() {
		if !v.available(id, s1-1) && !v.available(id, s0) {
			mu.Lock()
			skipped[id] = true
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(id raid.DiskID) {
			defer wg.Done()
			var buf []byte
			var err error
			if crc {
				buf, err = v.readStoreCRCs(ctx, id, elems, off)
			} else {
				buf = make([]byte, int64(elems)*v.elementSize)
				err = v.readStore(ctx, id, buf, off)
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				img[id] = buf
			case errors.Is(err, blockserver.ErrNoCRC):
				noCRC = true
			case blockserver.IsRemote(err):
				if remoteErr == nil {
					remoteErr = fmt.Errorf("cluster: scrub read on %v: %w", id, err)
				}
			default:
				skipped[id] = true // unreachable: skip, like a failed disk
			}
		}(id)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if noCRC {
		return nil, blockserver.ErrNoCRC
	}
	return img, remoteErr
}

// compareBatch compares every replica in a gathered image with its data
// element, each element being w bytes of the image.
func (v *Volume) compareBatch(img map[raid.DiskID][]byte, w int64, s0, s1 int, how string) (int64, error) {
	var compared int64
	for stripe := s0; stripe < s1; stripe++ {
		base := int64(stripe-s0) * int64(v.n)
		for disk := 0; disk < v.n; disk++ {
			for row := 0; row < v.n; row++ {
				locs := v.locations(stripe, disk, row)
				data, ok := img[locs[0].id]
				if !ok || !v.available(locs[0].id, stripe) {
					continue
				}
				want := data[(base+int64(locs[0].row))*w:][:w]
				for _, loc := range locs[1:] {
					repl, ok := img[loc.id]
					if !ok || !v.available(loc.id, stripe) {
						continue
					}
					if !bytes.Equal(want, repl[(base+int64(loc.row))*w:][:w]) {
						return compared, fmt.Errorf("%w: %v of data[%d] stripe %d row %d%s",
							ErrScrubMismatch, loc.id, disk, stripe, row, how)
					}
					compared++
				}
			}
		}
	}
	return compared, nil
}

// readStore reads one backend's bytes through its pool in
// MaxIOSize-bounded pieces, so a large buffer never trips the protocol's
// per-request limit.
func (v *Volume) readStore(ctx context.Context, id raid.DiskID, buf []byte, off int64) error {
	for at := 0; at < len(buf); {
		n := min(len(buf)-at, blockserver.MaxIOSize)
		chunk := buf[at : at+n]
		err := v.pools[id].doCtx(ctx, func(ctx context.Context, c *blockserver.Client) error {
			_, err := c.ReadAtCtx(ctx, chunk, off+int64(at))
			return err
		})
		if err != nil {
			return err
		}
		at += n
	}
	return nil
}

// readStoreCRCs fetches the CRC-32C of the elems consecutive elements
// starting at store offset off on one backend, as 4 little-endian bytes
// each, in requests bounded by MaxBatch ranges and MaxIOSize covered
// bytes (the server reads every range to checksum it, so the I/O budget
// applies even though only 4 bytes per element travel back).
func (v *Volume) readStoreCRCs(ctx context.Context, id raid.DiskID, elems int, off int64) ([]byte, error) {
	perReq := max(min(v.cfg.MaxBatch, int(blockserver.MaxIOSize/v.elementSize)), 1)
	sums := make([]uint32, elems)
	vecs := make([]blockserver.Vec, 0, perReq)
	for at := 0; at < elems; at += perReq {
		end := min(at+perReq, elems)
		vecs = vecs[:0]
		for i := at; i < end; i++ {
			vecs = append(vecs, blockserver.Vec{Off: off + int64(i)*v.elementSize, Len: int(v.elementSize)})
		}
		chunk := sums[at:end]
		err := v.pools[id].doCtx(ctx, func(ctx context.Context, c *blockserver.Client) error {
			return c.CrcV(ctx, vecs, chunk)
		})
		if err != nil {
			return nil, err
		}
	}
	out := make([]byte, 4*elems)
	for i, sum := range sums {
		binary.LittleEndian.PutUint32(out[4*i:], sum)
	}
	return out, nil
}
