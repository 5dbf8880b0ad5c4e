package cluster

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

// mirrorRoles[i] is the role of mirror array i (matches internal/raid).
var mirrorRoles = []raid.Role{raid.RoleMirror, raid.RoleMirror2}

// location is one physical home of a data element: a disk and the row it
// occupies there.
type location struct {
	id  raid.DiskID
	row int
}

// span is one contiguous byte range within one data element, routed to
// its src-th surviving location. The fetch engine advances src on
// failover until the range is served or every location is exhausted.
type span struct {
	stripe, disk, row int   // data-array element address
	inner             int64 // byte offset within the element
	buf               []byte
	src               int      // index into the element's location list
	loc               location // chosen location for the current round
	// lastErr is the error that failed the span's most recent location,
	// kept so exhaustion can be diagnosed: every copy failing its CRC is
	// corruption (ErrScrubMismatch), not data loss.
	lastErr error
}

// Volume is a networked mirror-family block device: the element layout
// of a *raid.Mirror architecture striped over one blockserver backend
// per disk. All methods are safe for concurrent use.
type Volume struct {
	arch *raid.Mirror
	// place maps logical elements to the pool slots holding their
	// copies — the single source of placement truth for the read
	// failover, write fan-out, rebuild gather, scrub, and hedging
	// paths. It is the architecture's arrangement wrapped as a classic
	// two-array placement, or (Config.Layout / the arrangement itself
	// implementing layout.Placement) a pooled placement such as the
	// declustered schedule.
	place       layout.Placement
	n           int
	elementSize int64
	stripes     int
	cfg         Config

	// mu orders the data path like internal/dev: reads share it, writes
	// and rebuild slices exclude each other, so replica sets never tear.
	mu    sync.RWMutex
	pools map[raid.DiskID]*pool
	addrs map[raid.DiskID]string
	// failed marks disks whose content is declared lost; progress is the
	// rebuild watermark (stripes already recovered onto the replacement
	// backend, served and written there even before RebuildDisk ends).
	// rebuilding marks disks with a RebuildDisk in flight, so a second
	// concurrent rebuild of the same disk is rejected instead of racing
	// on the watermark. replacement marks failed disks that
	// ReplaceBackend pointed at a fresh backend (see DiskState); it is
	// only set while failed is and cleared with it, so a disk that
	// fails starts without it.
	failed      map[raid.DiskID]bool
	progress    map[raid.DiskID]int
	rebuilding  map[raid.DiskID]bool
	replacement map[raid.DiskID]bool
	// scrubPos is ScrubOnline's resumable cursor: the stripe the next
	// online pass (or the resumption of a cancelled one) starts from.
	scrubPos int

	// qos, when non-nil, throttles rebuild slices and online scrub
	// batches through a shared adaptive token bucket (Config.RebuildQoS*
	// / WithRebuildQoS). Never blocks while mu is held.
	qos *qosController

	stats volumeStats
}

type volumeStats struct {
	elementsRead, elementsWritten obs.Counter
	degradedReads                 obs.Counter
	failovers                     obs.Counter
	autoFailed                    obs.Counter
	rebuilds                      obs.Counter
	rebuildBytes                  obs.Counter
	rebuildStripes                obs.Counter
	rebuildNanos                  obs.Counter
	rebuildActive                 obs.Gauge // rebuilds currently in flight
	scrubs                        obs.Counter
	scrubElements                 obs.Counter // replica elements compared across all scrubs
	scrubCRCElements              obs.Counter // subset compared by checksum (OpCrcV fast path)
	scrubSkipped                  obs.Counter // disks skipped across all scrubs

	// crcReadErrors counts vectored reads whose payload failed its
	// CRC-32C at this client — end-to-end corruption detections on the
	// read path (WireCRC mode only).
	crcReadErrors obs.Counter

	// Write-batching accounting: writeBatches counts OpWriteV frames
	// issued by the write fan-out (user writes and rebuild write-back);
	// writeBatchElements counts the element-copy ops those frames
	// carried, so elements-per-frame is their ratio.
	writeBatches       obs.Counter
	writeBatchElements obs.Counter

	// Hedged-read accounting: attempts are hedge timers that fired,
	// wins are reads served by the backup copy, losses are primaries
	// that beat their backup after all, cancels are loser requests
	// cancelled mid-flight.
	hedgeAttempts obs.Counter
	hedgeWins     obs.Counter
	hedgeLosses   obs.Counter
	hedgeCancels  obs.Counter

	// QoS controller accounting (rebuild/scrub throttling): qosRate is
	// the current token-bucket rate in stripes/second, qosHeadroom the
	// signed gap between the SLO and the last feedback window's user
	// fetch p99 in microseconds (negative while the SLO is violated),
	// qosThrottles/qosBoosts count rate halvings and raises, and
	// qosWaitNanos accumulates time rebuild and scrub spent parked
	// waiting for tokens.
	qosRate      obs.Gauge
	qosHeadroom  obs.Gauge
	qosThrottles obs.Counter
	qosBoosts    obs.Counter
	qosWaitNanos obs.Counter

	// scrubCursor mirrors Volume.scrubPos for exposition: the online
	// scrubber's resumable position in stripes.
	scrubCursor obs.Gauge

	readLat  *obs.Histogram // ReadAt wall time
	writeLat *obs.Histogram // WriteAt wall time
	sliceLat *obs.Histogram // rebuild slice wall time (one exclusive-lock hold)
	fetchLat *obs.Histogram // per-backend vectored-read round trips (hedge trigger source)

	// pipe aggregates the pipelined-mode wire counters (in-flight window
	// depth, queue-wait latency, frames-per-writev coalescing) across
	// every backend connection. Allocated even when Config.Pipeline is
	// off so Stats()/metrics registration stay unconditional; it simply
	// stays at zero then.
	pipe *blockserver.PipeStats

	// perDisk is fixed at New: per-slot counters survive backend
	// replacement, so a disk's history spans machine swaps.
	perDisk map[raid.DiskID]*diskStats
}

// diskStats are one disk slot's counters: its pool's network-level
// state machine plus the cluster-level rebuild bookkeeping.
type diskStats struct {
	pool poolStats
	// rebuildReads counts data elements this backend served as a
	// *source* for some other disk's rebuild — the wire-level footprint
	// of the paper's Properties 1/2 (shifted: a failed disk's rebuild
	// load spreads one element-column per surviving backend; traditional:
	// it all lands on the twin).
	rebuildReads obs.Counter
	// watermark is the disk's availability frontier in stripes: Stripes
	// when healthy, the rebuild watermark while failed.
	watermark obs.Gauge
}

// init populates a zero volumeStats in place (the struct embeds
// atomics and must not be copied).
func (s *volumeStats) init(disks []raid.DiskID, stripes int) {
	s.readLat = obs.NewHistogram()
	s.writeLat = obs.NewHistogram()
	s.sliceLat = obs.NewHistogram()
	s.fetchLat = obs.NewHistogram()
	s.pipe = blockserver.NewPipeStats()
	s.perDisk = map[raid.DiskID]*diskStats{}
	for _, id := range disks {
		ds := &diskStats{}
		ds.watermark.Set(int64(stripes))
		s.perDisk[id] = ds
	}
}

// New builds a Volume over the given architecture with one backend
// address per disk. Every disk in arch.Disks() must have an address;
// parity architectures are not supported (the cluster data path is
// replica-based — use a second mirror array for fault tolerance two).
func New(arch *raid.Mirror, backends map[raid.DiskID]string, cfg Config) (*Volume, error) {
	if arch.Parity() {
		return nil, fmt.Errorf("cluster: parity architectures are not supported; use a mirror or three-mirror arrangement")
	}
	cfg = cfg.withDefaults()
	place, err := resolvePlacement(arch, cfg.Layout)
	if err != nil {
		return nil, err
	}
	v := &Volume{
		arch:        arch,
		place:       place,
		n:           arch.N(),
		elementSize: cfg.ElementSize,
		stripes:     cfg.Stripes,
		cfg:         cfg,
		pools:       map[raid.DiskID]*pool{},
		addrs:       map[raid.DiskID]string{},
		failed:      map[raid.DiskID]bool{},
		progress:    map[raid.DiskID]int{},
		rebuilding:  map[raid.DiskID]bool{},
		replacement: map[raid.DiskID]bool{},
	}
	v.stats.init(arch.Disks(), cfg.Stripes)
	if cfg.RebuildQoSSLO > 0 {
		v.qos = newQoSController(cfg, &v.stats)
	}
	for _, id := range arch.Disks() {
		addr, ok := backends[id]
		if !ok {
			return nil, fmt.Errorf("cluster: no backend address for disk %v", id)
		}
		v.pools[id] = newPool(addr, cfg, &v.stats.perDisk[id].pool, v.stats.pipe)
		v.addrs[id] = addr
	}
	if len(backends) != len(v.pools) {
		return nil, fmt.Errorf("cluster: %d backend addresses for %d disks", len(backends), len(v.pools))
	}
	if cfg.Metrics != nil {
		v.RegisterMetrics(cfg.Metrics)
	}
	return v, nil
}

// Close releases every pooled connection.
func (v *Volume) Close() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, p := range v.pools {
		p.close()
	}
}

// Size returns the logical capacity in bytes.
func (v *Volume) Size() int64 {
	return int64(v.stripes) * int64(v.n) * int64(v.n) * v.elementSize
}

// DiskSize returns the per-disk capacity each backend must serve.
func (v *Volume) DiskSize() int64 {
	return int64(v.stripes) * int64(v.n) * v.elementSize
}

// Arch returns the underlying architecture.
func (v *Volume) Arch() *raid.Mirror { return v.arch }

// Verify dials every backend and checks it serves exactly one disk's
// worth of bytes, catching mis-wired address maps before data flows.
func (v *Volume) Verify() error {
	want := v.DiskSize()
	v.mu.RLock()
	defer v.mu.RUnlock()
	for id, p := range v.pools {
		var size int64
		err := p.do(func(c *blockserver.Client) error {
			var err error
			size, err = c.Size()
			return err
		})
		if err != nil {
			return fmt.Errorf("cluster: backend %v (%s): %w", id, p.addr, err)
		}
		if size != want {
			return fmt.Errorf("cluster: backend %v (%s) serves %d bytes, want %d", id, p.addr, size, want)
		}
	}
	return nil
}

// elemAddr locates logical byte offset off (row-major elements within
// each stripe, matching internal/dev and the paper's numbering).
func (v *Volume) elemAddr(off int64) (stripe, disk, row int, inner int64) {
	elem := off / v.elementSize
	inner = off % v.elementSize
	perStripe := int64(v.n) * int64(v.n)
	stripe = int(elem / perStripe)
	idx := elem % perStripe
	row = int(idx / int64(v.n))
	disk = int(idx % int64(v.n))
	return stripe, disk, row, inner
}

// storeOffset is the byte offset of element (stripe, row) within a disk.
func (v *Volume) storeOffset(stripe, row int) int64 {
	return (int64(stripe)*int64(v.n) + int64(row)) * v.elementSize
}

// locations returns every physical home of data element (disk, row) in
// the given stripe: the primary copy first, then each replica in the
// placement's failover order. Under the shifted arrangement every copy
// is on a different backend than any other copy of the same disk's
// elements, which is what makes failover and one-pass rebuild fan out
// (Properties 1 and 2); under a pooled placement the homes also rotate
// per stripe.
func (v *Volume) locations(stripe, disk, row int) []location {
	slots := v.place.Copies(int64(stripe), layout.Addr{Disk: disk, Row: row})
	locs := make([]location, len(slots))
	for i, s := range slots {
		locs[i] = location{v.diskID(s.Disk), s.Row}
	}
	return locs
}

// resolvePlacement picks the Placement driving a volume: the named
// registered layout when Config.Layout is set, the architecture's
// arrangement when it implements layout.Placement itself, or the
// arrangement(s) wrapped as the classic fixed two-array (or three-array)
// geometry otherwise.
func resolvePlacement(arch *raid.Mirror, name string) (layout.Placement, error) {
	if name == "" {
		if len(arch.Mirrors()) == 1 {
			if p, ok := arch.Mirrors()[0].(layout.Placement); ok {
				return checkPlacement(arch, p)
			}
		}
		return layout.PlacementOf(arch.Mirrors()...), nil
	}
	if len(arch.Mirrors()) != 1 {
		return nil, fmt.Errorf("cluster: layout %q needs a single-mirror architecture, not %s", name, arch.Name())
	}
	arr, err := layout.New(name, arch.N())
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if p, ok := arr.(layout.Placement); ok {
		return checkPlacement(arch, p)
	}
	return layout.PlacementOf(arr), nil
}

// checkPlacement verifies a pooled placement spans exactly the
// architecture's disks.
func checkPlacement(arch *raid.Mirror, p layout.Placement) (layout.Placement, error) {
	if want := len(arch.Disks()); p.Width() != want {
		return nil, fmt.Errorf("cluster: placement spans %d pool disks, architecture has %d", p.Width(), want)
	}
	return p, nil
}

// diskID maps a placement pool-disk index to the disk slot serving it:
// pool disks [0,n) are the data array, each further n-disk band one
// mirror array.
func (v *Volume) diskID(p int) raid.DiskID {
	if p < v.n {
		return raid.DiskID{Role: raid.RoleData, Index: p}
	}
	return raid.DiskID{Role: mirrorRoles[p/v.n-1], Index: p % v.n}
}

// poolIndex is the inverse of diskID.
func (v *Volume) poolIndex(id raid.DiskID) int {
	if id.Role == raid.RoleData {
		return id.Index
	}
	for mi, role := range mirrorRoles {
		if id.Role == role {
			return (1+mi)*v.n + id.Index
		}
	}
	panic(fmt.Sprintf("cluster: disk %v has no pool index", id))
}

// available reports whether a disk can serve the given stripe: it is
// healthy, or the rebuild watermark has passed the stripe.
func (v *Volume) available(id raid.DiskID, stripe int) bool {
	return !v.failed[id] || stripe < v.progress[id]
}

// fetchKind says on whose behalf fetchSpans is running, which decides
// how served spans are attributed in the stats.
type fetchKind int

const (
	// fetchUser is a client read: spans served from a non-primary copy
	// count as degraded reads.
	fetchUser fetchKind = iota
	// fetchInternal is a read-modify-write pre-read: replica serving is
	// routine, nothing extra is counted.
	fetchInternal
	// fetchRebuild is a rebuild gather: every served span is credited
	// to the backend that sourced it, so the per-backend rebuild load
	// distribution (Properties 1/2) is observable on the wire.
	fetchRebuild
)

// fetchSpans serves every span from its first surviving location,
// failing over to later locations (replica backends) as groups fail.
// Call with v.mu held (read or write). kind attributes the serving:
// degraded-read counting for user reads, per-backend source counting
// for rebuild gathers. Only user reads hedge (when enabled): rebuild
// gathers must keep their deterministic per-backend source attribution
// (the wire-measurable Properties 1/2), and RMW pre-reads are already
// under the exclusive lock.
func (v *Volume) fetchSpans(ctx context.Context, spans []*span, kind fetchKind) error {
	pending := spans
	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		groups := map[raid.DiskID][]*span{}
		for _, s := range pending {
			locs := v.locations(s.stripe, s.disk, s.row)
			for s.src < len(locs) && !v.available(locs[s.src].id, s.stripe) {
				s.src++
			}
			if s.src >= len(locs) {
				// Every location is exhausted. If the last copy died on a
				// checksum verdict the bytes exist but are rotten — that is
				// corruption, not data loss, and retrying other replicas
				// already happened (CRC failures fail over like any other).
				if blockserver.IsCRC(s.lastErr) {
					return fmt.Errorf("%w: every copy of data[%d] stripe %d row %d failed its checksum",
						ErrScrubMismatch, s.disk, s.stripe, s.row)
				}
				return fmt.Errorf("%w: data[%d] stripe %d row %d", ErrDataLoss, s.disk, s.stripe, s.row)
			}
			s.loc = locs[s.src]
			groups[s.loc.id] = append(groups[s.loc.id], s)
		}
		type result struct {
			id       raid.DiskID
			spans    []*span // spans that must fail over
			served   int     // spans this backend actually served
			degraded int     // served spans routed past their primary copy
		}
		results := make(chan result, len(groups))
		for id, g := range groups {
			go func(id raid.DiskID, g []*span) {
				failed := v.fetchGroup(ctx, id, g, kind)
				// fetchGroup can fail any subset of its batches (the
				// burst lands them out of order), so count the
				// served spans by exclusion; those with src > 0 were
				// routed to a replica because the primary copy's disk
				// was failed or dead.
				degraded := 0
				if len(failed) == 0 {
					for _, s := range g {
						if s.src > 0 {
							degraded++
						}
					}
				} else {
					isFailed := make(map[*span]bool, len(failed))
					for _, s := range failed {
						isFailed[s] = true
					}
					for _, s := range g {
						if !isFailed[s] && s.src > 0 {
							degraded++
						}
					}
				}
				results <- result{id, failed, len(g) - len(failed), degraded}
			}(id, g)
		}
		pending = nil
		for range groups {
			r := <-results
			switch kind {
			case fetchUser:
				v.stats.degradedReads.Add(int64(r.degraded))
			case fetchRebuild:
				v.stats.perDisk[r.id].rebuildReads.Add(int64(r.served))
			}
			for _, s := range r.spans {
				s.src++
				pending = append(pending, s)
			}
			v.stats.failovers.Add(int64(len(r.spans)))
		}
		if err := ctx.Err(); err != nil {
			// Cancellation fails every in-flight group at once; without
			// this check the failover loop would burn through all replica
			// locations and misreport the cancel as data loss.
			return err
		}
	}
	return nil
}

// fetchGroupBurst bounds the concurrent OpReadV batches one gather
// keeps in flight per backend. The pool already bounds the wire (slots
// in synchronous mode, the per-connection window when pipelined); this
// only caps goroutines for absurdly large spans.
const fetchGroupBurst = 16

// fetchGroup gathers one backend's spans in MaxBatch-sized OpReadV
// round trips — hedged against the spans' replica locations for user
// reads — and returns the spans it could not serve. Spans that fit one
// batch are read on the caller's goroutine. Larger gathers submit every
// batch as one bounded concurrent burst: pooled connections interleave
// the requests (pipelined connections also coalesce their frames and
// complete them out of order), so a multi-batch gather costs about one
// round-trip time instead of one per batch. Each failed batch fails
// over on its own.
func (v *Volume) fetchGroup(ctx context.Context, id raid.DiskID, spans []*span, kind fetchKind) []*span {
	if len(spans) <= v.cfg.MaxBatch {
		return v.fetchBatch(ctx, id, spans, kind)
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed []*span
		sem    = make(chan struct{}, fetchGroupBurst)
	)
	for start := 0; start < len(spans); start += v.cfg.MaxBatch {
		batch := spans[start:min(start+v.cfg.MaxBatch, len(spans))]
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if f := v.fetchBatch(ctx, id, batch, kind); f != nil {
				mu.Lock()
				failed = append(failed, f...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return failed
}

// fetchBatch reads one batch and returns it whole if the read failed,
// with each span's lastErr recording why, so exhaustion can tell
// corruption from loss. The pool has already retried and possibly
// marked the backend dead.
func (v *Volume) fetchBatch(ctx context.Context, id raid.DiskID, batch []*span, kind fetchKind) []*span {
	err := v.readBatch(ctx, id, batch, kind)
	if err == nil {
		return nil
	}
	for _, s := range batch {
		s.lastErr = err
	}
	return batch
}

// ReadAt implements io.ReaderAt over the logical space, gathering
// element ranges per backend and failing over to replica backends for
// disks that are failed or unreachable. It is ReadAtCtx with
// context.Background(): no deadline, no cancellation — the pre-existing
// behaviour.
func (v *Volume) ReadAt(p []byte, off int64) (int, error) {
	return v.ReadAtCtx(context.Background(), p, off)
}

// ReadAtCtx is ReadAt with deadline and cancellation propagation: ctx
// follows the request into every pooled connection operation (slot
// waits, dials, retry backoff, and the wire exchange itself, which is
// interrupted mid-frame on cancel). When hedging is enabled, slow
// backends are raced against the spans' replica locations and the
// loser is cancelled.
func (v *Volume) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	size := v.Size()
	if off < 0 {
		return 0, fmt.Errorf("cluster: negative read offset %d", off)
	}
	if off >= size {
		return 0, io.EOF
	}
	n := len(p)
	if off+int64(n) > size {
		n = int(size - off)
	}
	start := time.Now()
	defer func() { v.stats.readLat.Observe(time.Since(start)) }()
	v.mu.RLock()
	spans := make([]*span, 0, int64(n)/v.elementSize+2)
	for total := 0; total < n; {
		stripe, disk, row, inner := v.elemAddr(off + int64(total))
		chunk := v.elementSize - inner
		if rem := int64(n - total); chunk > rem {
			chunk = rem
		}
		spans = append(spans, &span{
			stripe: stripe, disk: disk, row: row,
			inner: inner, buf: p[total : total+int(chunk)],
		})
		total += int(chunk)
	}
	v.stats.elementsRead.Add(int64(len(spans)))
	err := v.fetchSpans(ctx, spans, fetchUser)
	v.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// writeOp is one element-granular store write bound for a backend.
type writeOp struct {
	id     raid.DiskID
	off    int64
	data   []byte
	elem   int // index of the logical element this op replicates
	stripe int // stripe the element belongs to, for watermark rollback
}

// WriteAt implements io.WriterAt over the logical space, fanning each
// element out to its data disk and every replica backend concurrently
// (a row write lands on all 2n backends in one parallel access —
// Property 3 over the network). A backend that stops accepting writes
// is auto-failed: its disk drops out and redundancy carries the data,
// matching how internal/dev skips failed disks. It is WriteAtCtx with
// context.Background().
func (v *Volume) WriteAt(p []byte, off int64) (int, error) {
	return v.WriteAtCtx(context.Background(), p, off)
}

// WriteAtCtx is WriteAt with deadline and cancellation propagation.
// A cancelled write returns ctx's error; replicas that were reached
// before the cancel keep the bytes (the write is not rolled back), and
// backends whose op was cancelled are not auto-failed — cancellation
// says nothing about their health.
//
// Locking: the network fan-out runs under the shared lock, so writes no
// longer block readers or each other; only rebuild slices (which hold
// the exclusive lock across their fetch+write to keep the replacement
// backend coherent) still exclude writes. The exclusive lock is retaken
// after the fan-out, solely for failed/watermark bookkeeping. Writers
// running concurrently means overlapping WriteAt calls race exactly as
// they do on a raw block device: each element copy lands atomically,
// but which writer's bytes survive — per replica — is unordered, so
// callers that overlap writes must serialize themselves (see DESIGN.md
// §11; TestConcurrentWriters documents the semantics).
func (v *Volume) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > v.Size() {
		return 0, fmt.Errorf("cluster: write [%d,%d) outside volume of %d bytes", off, off+int64(len(p)), v.Size())
	}
	start := time.Now()
	defer func() { v.stats.writeLat.Observe(time.Since(start)) }()
	v.mu.RLock()
	// A torn first or last element is read-modify-written: all RMW
	// pre-reads are collected and fetched in one gather, so an unaligned
	// write pays one round trip per involved backend, not one per torn
	// edge.
	type patch struct {
		content []byte
		inner   int64
		frag    []byte
	}
	var ops []writeOp
	var rmwSpans []*span
	var patches []patch
	elems := 0
	for total := 0; total < len(p); {
		stripe, disk, row, inner := v.elemAddr(off + int64(total))
		chunk := v.elementSize - inner
		if rem := int64(len(p) - total); chunk > rem {
			chunk = rem
		}
		var content []byte
		if inner == 0 && chunk == v.elementSize {
			content = p[total : total+int(chunk)]
		} else {
			content = make([]byte, v.elementSize)
			rmwSpans = append(rmwSpans, &span{stripe: stripe, disk: disk, row: row, buf: content})
			patches = append(patches, patch{content: content, inner: inner, frag: p[total : total+int(chunk)]})
		}
		for _, loc := range v.locations(stripe, disk, row) {
			if !v.available(loc.id, stripe) {
				continue // redundancy carries it until rebuild catches up
			}
			ops = append(ops, writeOp{
				id: loc.id, off: v.storeOffset(stripe, loc.row), data: content, elem: elems, stripe: stripe,
			})
		}
		elems++
		total += int(chunk)
	}
	if len(rmwSpans) > 0 {
		if err := v.fetchSpans(ctx, rmwSpans, fetchInternal); err != nil {
			v.mu.RUnlock()
			return 0, err
		}
		for _, pt := range patches {
			copy(pt.content[pt.inner:], pt.frag)
		}
	}
	succeeded := make([]atomic.Int64, elems)
	broken, err := v.runWrites(ctx, ops, succeeded)
	// An element counts as written only once it reached at least one
	// backend; cancelled or all-failed fan-outs do not inflate the
	// counter.
	var written int64
	for i := range succeeded {
		if succeeded[i].Load() > 0 {
			written++
		}
	}
	v.stats.elementsWritten.Add(written)
	v.mu.RUnlock()
	if len(broken) > 0 {
		// Bookkeeping needs the exclusive lock. The broken verdicts stay
		// valid across the lock gap: auto-fail re-checks v.failed, and the
		// rollback below only ever pulls a watermark down, so a rebuild
		// slice that advanced it meanwhile is re-run, never skipped.
		v.mu.Lock()
		for id, minStripe := range broken {
			if !v.failed[id] {
				v.failed[id] = true
				v.progress[id] = 0
				v.stats.autoFailed.Inc()
				v.stats.perDisk[id].watermark.Set(0)
				v.trace(obs.Event{Op: "auto_fail", Target: id.String()})
			} else if v.progress[id] > minStripe {
				// A disk mid-rebuild missed a write below its watermark: the
				// rebuilt copy of that stripe is now stale. Pull the watermark
				// back so reads fail over to the replicas that did take the
				// write and the rebuild re-recovers everything from there.
				v.progress[id] = minStripe
				v.stats.perDisk[id].watermark.Set(int64(minStripe))
			}
		}
		v.mu.Unlock()
	}
	if err != nil {
		return 0, err
	}
	if cerr := ctx.Err(); cerr != nil {
		// Cancelled mid-fan-out: report the cancel, not data loss — the
		// missing replicas were never attempted, not lost.
		return 0, cerr
	}
	for i := range succeeded {
		if succeeded[i].Load() == 0 {
			return 0, fmt.Errorf("%w: element %d of write at %d reached no backend", ErrDataLoss, i, off)
		}
	}
	return len(p), nil
}

// wframe is one OpWriteV round trip bound for a backend: the coalesced
// wire ranges plus the ops they carry. opRange[i] is the index of the
// vec carrying ops[i], so a mid-batch remote error (ranges before the
// failed index are durable) can be credited back to exact elements.
type wframe struct {
	vecs    []blockserver.Vec
	data    [][]byte
	ops     []writeOp
	opRange []int
}

// buffersAdjacent reports whether b starts exactly where a ends in
// memory — i.e. extending a by len(b) within its capacity would cover
// b. The check reslices within a's capacity and compares element
// addresses, so no out-of-bounds pointer is ever formed.
func buffersAdjacent(a, b []byte) bool {
	if len(b) == 0 || cap(a)-len(a) < len(b) {
		return false
	}
	ext := a[: len(a)+1 : len(a)+1]
	return &ext[len(a)] == &b[0]
}

// packFrames sorts one backend's ops by store offset and packs them
// into OpWriteV frames bounded by MaxBatch ranges and MaxIOSize bytes.
// Ops adjacent in both store offset and memory — rebuild write-back's
// normal case, where a slice's recovered elements are consecutive
// subslices of one buffer bound for consecutive store rows — merge into
// a single wire range. Under WireCRC merging is disabled: each range
// must stay exactly one element so its checksum maps onto one server
// sidecar block.
func (v *Volume) packFrames(group []writeOp) []wframe {
	sort.Slice(group, func(i, j int) bool { return group[i].off < group[j].off })
	var frames []wframe
	var cur wframe
	var curBytes int64
	flush := func() {
		if len(cur.ops) > 0 {
			frames = append(frames, cur)
			cur = wframe{}
			curBytes = 0
		}
	}
	for _, op := range group {
		opLen := int64(len(op.data))
		if len(cur.ops) > 0 {
			last := len(cur.vecs) - 1
			lv := cur.vecs[last]
			if !v.cfg.WireCRC && lv.Off+int64(lv.Len) == op.off && curBytes+opLen <= blockserver.MaxIOSize &&
				buffersAdjacent(cur.data[last], op.data) {
				cur.vecs[last].Len += len(op.data)
				cur.data[last] = cur.data[last][:len(cur.data[last])+len(op.data)]
				cur.ops = append(cur.ops, op)
				cur.opRange = append(cur.opRange, last)
				curBytes += opLen
				continue
			}
			if len(cur.vecs) >= v.cfg.MaxBatch || curBytes+opLen > blockserver.MaxIOSize {
				flush()
			}
		}
		cur.vecs = append(cur.vecs, blockserver.Vec{Off: op.off, Len: len(op.data)})
		cur.data = append(cur.data, op.data)
		cur.ops = append(cur.ops, op)
		cur.opRange = append(cur.opRange, len(cur.vecs)-1)
		curBytes += opLen
	}
	flush()
	return frames
}

// runWrites issues ops grouped per backend. Each group is packed into
// coalesced OpWriteV frames (see packFrames), so a full-stripe write
// costs one round trip per replica backend instead of one per element
// copy. Frames within a group are drained by up to PoolSize workers.
//
// It returns the backends whose transport failed (candidates for
// auto-fail), each mapped to the lowest stripe among its failed ops (so
// callers can roll a rebuild watermark back past every missed write),
// and the first remote (store-level) error, which indicates a logic
// problem rather than a dead machine. A transport-failed frame credits
// none of its ops — the server may have applied a prefix, but the
// client cannot know which, so the rollback covers the whole batch. A
// frame answered with a mid-batch remote error credits exactly the ops
// whose ranges precede the failed index. Ops that fail because ctx was
// cancelled count as neither: they do not mark the backend broken (no
// auto-fail from a caller's cancel) and are not remote errors.
//
// Call with v.mu held, read or write: the pools map must not be swapped
// under the fan-out.
func (v *Volume) runWrites(ctx context.Context, ops []writeOp, succeeded []atomic.Int64) (map[raid.DiskID]int, error) {
	groups := map[raid.DiskID][]writeOp{}
	for _, op := range ops {
		groups[op.id] = append(groups[op.id], op)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	broken := map[raid.DiskID]int{}
	var firstRemote error
	for id, g := range groups {
		frames := v.packFrames(g)
		p := v.pools[id]
		workers := v.cfg.PoolSize
		if workers > len(frames) {
			workers = len(frames)
		}
		var next atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id raid.DiskID, p *pool, frames []wframe, next *atomic.Int64) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(frames) {
						return
					}
					fr := frames[i]
					v.stats.writeBatches.Inc()
					v.stats.writeBatchElements.Add(int64(len(fr.ops)))
					applied := 0
					err := p.doCtx(ctx, func(ctx context.Context, c *blockserver.Client) error {
						n, err := c.WriteVCtx(ctx, fr.vecs, fr.data)
						applied = n
						return err
					})
					switch {
					case err == nil:
						for _, op := range fr.ops {
							succeeded[op.elem].Add(1)
						}
					case blockserver.IsRemote(err):
						// Ranges before the failed index are durable: credit
						// their ops, surface the store error.
						for oi, op := range fr.ops {
							if fr.opRange[oi] < applied {
								succeeded[op.elem].Add(1)
							}
						}
						mu.Lock()
						if firstRemote == nil {
							firstRemote = fmt.Errorf("cluster: backend %v: %w", id, err)
						}
						mu.Unlock()
					case ctx.Err() != nil:
						// Cancelled, not broken: the caller reports ctx's error.
					default:
						// Transport trouble: nothing from this frame may be
						// credited, and the watermark must roll back to the
						// lowest stripe in the batch, not the last acked frame.
						mu.Lock()
						for _, op := range fr.ops {
							if cur, ok := broken[id]; !ok || op.stripe < cur {
								broken[id] = op.stripe
							}
						}
						mu.Unlock()
					}
				}
			}(id, p, frames, &next)
		}
	}
	wg.Wait()
	return broken, firstRemote
}

// Fail declares a disk's content lost (its backend crashed, was wiped,
// or is being decommissioned). Service continues from replicas; the
// bytes are restored by RebuildDisk, optionally after ReplaceBackend
// points the disk at a fresh server.
func (v *Volume) Fail(id raid.DiskID) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.pools[id]; !ok {
		return fmt.Errorf("cluster: unknown disk %v", id)
	}
	if v.failed[id] {
		return fmt.Errorf("%w: %v already failed", ErrDiskFailed, id)
	}
	v.failed[id] = true
	v.progress[id] = 0
	v.stats.perDisk[id].watermark.Set(0)
	v.trace(obs.Event{Op: "fail", Target: id.String()})
	return nil
}

// trace emits ev to the configured tracer, if any.
func (v *Volume) trace(ev obs.Event) {
	if v.cfg.Tracer != nil {
		v.cfg.Tracer.Trace(ev)
	}
}

// ReplaceBackend points a disk at a new (typically fresh) backend,
// closing the old pool. The usual sequence for a lost machine is
// Fail → ReplaceBackend → RebuildDisk; replacing a failed disk's
// backend sets its Replacement bit until the rebuild completes.
func (v *Volume) ReplaceBackend(id raid.DiskID, addr string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	old, ok := v.pools[id]
	if !ok {
		return fmt.Errorf("cluster: unknown disk %v", id)
	}
	old.close()
	// The disk slot's counters carry over: replacing the machine does
	// not erase the disk's service history.
	v.pools[id] = newPool(addr, v.cfg, &v.stats.perDisk[id].pool, v.stats.pipe)
	v.addrs[id] = addr
	if v.failed[id] {
		v.replacement[id] = true
	}
	v.trace(obs.Event{Op: "replace_backend", Target: id.String()})
	return nil
}

// FailedDisks returns the disks currently marked failed.
func (v *Volume) FailedDisks() []raid.DiskID {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var out []raid.DiskID
	for id := range v.failed {
		out = append(out, id)
	}
	sortDisks(out)
	return out
}

func sortDisks(ids []raid.DiskID) {
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Role != ids[j].Role {
			return ids[i].Role < ids[j].Role
		}
		return ids[i].Index < ids[j].Index
	})
}
