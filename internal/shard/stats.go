package shard

import (
	"sort"

	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

// shardStats holds the shard layer's own live instrumentation. The
// first block is updated inline by the data path. The rollup gauges are
// derived from the children: the placement gauges on every
// refreshRollups (Stats and lifecycle changes), the summed child
// counters on every Stats. A scrape between refreshes sees slightly
// stale aggregates but always-fresh data-path counters.
type shardStats struct {
	reads, writes         obs.Counter
	readBytes, writeBytes obs.Counter
	// boundarySplits counts requests that crossed at least one group
	// boundary and fanned out to more than one child.
	boundarySplits  obs.Counter
	rebuilds        obs.Counter
	rebuildErrors   obs.Counter
	migratedExtents obs.Counter
	rebuildActive   obs.Gauge
	readLat         *obs.Histogram
	writeLat        *obs.Histogram

	// Rollups over the derived placement table and child volumes.
	groups        obs.Gauge
	extents       obs.Gauge
	devOnline     obs.Gauge
	devDead       obs.Gauge
	devPending    obs.Gauge
	devRebuilding obs.Gauge
	maxIncomplete obs.Gauge
	degradedReads obs.Gauge
	crcReadErrors obs.Gauge
	minWatermark  obs.Gauge
}

func (st *shardStats) init() {
	st.readLat = obs.NewHistogram()
	st.writeLat = obs.NewHistogram()
}

// register exposes the sm_shard_* namespace on reg. The children's
// sm_cluster_* series are registered separately with group="<id>"
// labels (see New/AddGroup).
func (st *shardStats) register(reg *obs.Registry) {
	reg.RegisterCounter("sm_shard_reads_total",
		"Sharded volume reads.", &st.reads)
	reg.RegisterCounter("sm_shard_writes_total",
		"Sharded volume writes.", &st.writes)
	reg.RegisterCounter("sm_shard_read_bytes_total",
		"Bytes served by sharded reads.", &st.readBytes)
	reg.RegisterCounter("sm_shard_write_bytes_total",
		"Bytes accepted by sharded writes.", &st.writeBytes)
	reg.RegisterCounter("sm_shard_boundary_splits_total",
		"Requests that crossed a group boundary and fanned out to more than one group.", &st.boundarySplits)
	reg.RegisterCounter("sm_shard_rebuilds_total",
		"Completed rebuilds through the sharded surface.", &st.rebuilds)
	reg.RegisterCounter("sm_shard_rebuild_errors_total",
		"RebuildDisk calls through the sharded surface that returned an error, including calls the child volume rejected (disk not failed, rebuild already running).", &st.rebuildErrors)
	reg.RegisterCounter("sm_shard_migrated_extents_total",
		"Extents copied between groups by RemoveGroup migrations.", &st.migratedExtents)
	reg.RegisterGauge("sm_shard_rebuilds_active",
		"Rebuilds in flight across all groups.", &st.rebuildActive)
	reg.RegisterHistogram("sm_shard_read_duration_seconds",
		"ShardedVolume.ReadAt wall time.", st.readLat)
	reg.RegisterHistogram("sm_shard_write_duration_seconds",
		"ShardedVolume.WriteAt wall time.", st.writeLat)
	reg.RegisterGauge("sm_shard_groups",
		"Live stripe groups.", &st.groups)
	reg.RegisterGauge("sm_shard_extents",
		"Logical stripe slots in the extent table.", &st.extents)
	reg.RegisterGauge("sm_shard_devices_online",
		"Placement-table devices online.", &st.devOnline)
	reg.RegisterGauge("sm_shard_devices_dead",
		"Placement-table devices dead (content lost or backend unreachable, no replacement).", &st.devDead)
	reg.RegisterGauge("sm_shard_devices_replacement_pending",
		"Placement-table devices with a fresh backend awaiting rebuild.", &st.devPending)
	reg.RegisterGauge("sm_shard_devices_rebuilding",
		"Placement-table devices with a rebuild in flight.", &st.devRebuilding)
	reg.RegisterGauge("sm_shard_max_incompleteness_stripes",
		"Worst per-device incompleteness (stripes not yet recovered) across the fleet.", &st.maxIncomplete)
	reg.RegisterGauge("sm_shard_degraded_reads",
		"Element reads served from a replica, summed across groups.", &st.degradedReads)
	reg.RegisterGauge("sm_shard_crc_read_errors",
		"End-to-end CRC read failures, summed across groups.", &st.crcReadErrors)
	reg.RegisterGauge("sm_shard_min_watermark_stripes",
		"Lowest rebuild watermark across every device — the volume's availability frontier.", &st.minWatermark)
}

// refreshRollups derives the placement table from the children's
// state in one pass, sets the placement gauges from it, and returns it
// (see Placement).
func (s *ShardedVolume) refreshRollups() Snapshot {
	var snap Snapshot
	minWM := int64(-1)
	s.eachDevice(func(d Device, _ raid.DiskID, wm int64) {
		snap.Devices = append(snap.Devices, d)
		snap.Rollup.add(d)
		if minWM < 0 || wm < minWM {
			minWM = wm
		}
	})
	sort.Slice(snap.Devices, func(i, j int) bool {
		a, b := snap.Devices[i], snap.Devices[j]
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		return a.Disk < b.Disk
	})
	if minWM < 0 {
		minWM = 0
	}
	s.mu.RLock()
	groups, extents := len(s.groups), len(s.extents)
	s.mu.RUnlock()
	r := snap.Rollup
	s.stats.groups.Set(int64(groups))
	s.stats.extents.Set(int64(extents))
	s.stats.devOnline.Set(int64(r.Online))
	s.stats.devDead.Set(int64(r.Dead))
	s.stats.devPending.Set(int64(r.ReplacementPending))
	s.stats.devRebuilding.Set(int64(r.Rebuilding))
	s.stats.maxIncomplete.Set(r.MaxIncompleteness)
	s.stats.minWatermark.Set(minWM)
	return snap
}

// GroupStats pairs a group id with its child volume's full snapshot.
type GroupStats struct {
	Group   int           `json:"group"`
	Cluster cluster.Stats `json:"cluster"`
}

// Stats is the cluster-wide machine-readable snapshot: shard-level
// routing counters, the placement table, and every group's full
// cluster.Stats. It marshals to JSON for smtool and shardrecon.
type Stats struct {
	Reads           int64 `json:"reads"`
	Writes          int64 `json:"writes"`
	ReadBytes       int64 `json:"read_bytes"`
	WriteBytes      int64 `json:"write_bytes"`
	BoundarySplits  int64 `json:"boundary_splits"`
	Rebuilds        int64 `json:"rebuilds"`
	RebuildErrors   int64 `json:"rebuild_errors"`
	RebuildActive   int64 `json:"rebuild_active"`
	MigratedExtents int64 `json:"migrated_extents"`

	Groups    int   `json:"groups"`
	Extents   int   `json:"extents"`
	SizeBytes int64 `json:"size_bytes"`

	// Aggregates over every group.
	DegradedReads       int64 `json:"degraded_reads"`
	CRCReadErrors       int64 `json:"crc_read_errors"`
	MinWatermarkStripes int64 `json:"min_watermark_stripes"`

	ReadLatency  obs.HistSnapshot `json:"read_latency"`
	WriteLatency obs.HistSnapshot `json:"write_latency"`

	Placement Snapshot     `json:"placement"`
	PerGroup  []GroupStats `json:"per_group"`
}

// Stats returns the full snapshot. It refreshes the rollup gauges as a
// side effect, so a metrics scrape right after Stats sees the same
// aggregates.
func (s *ShardedVolume) Stats() Stats {
	placement := s.refreshRollups()
	gs := s.pinAll()
	defer unpinAll(gs)
	s.mu.RLock()
	extents := len(s.extents)
	s.mu.RUnlock()

	out := Stats{
		Reads:           s.stats.reads.Load(),
		Writes:          s.stats.writes.Load(),
		ReadBytes:       s.stats.readBytes.Load(),
		WriteBytes:      s.stats.writeBytes.Load(),
		BoundarySplits:  s.stats.boundarySplits.Load(),
		Rebuilds:        s.stats.rebuilds.Load(),
		RebuildErrors:   s.stats.rebuildErrors.Load(),
		RebuildActive:   s.stats.rebuildActive.Load(),
		MigratedExtents: s.stats.migratedExtents.Load(),

		Groups:    len(gs),
		Extents:   extents,
		SizeBytes: int64(extents) * s.stripeB,

		MinWatermarkStripes: s.stats.minWatermark.Load(),

		ReadLatency:  s.stats.readLat.Snapshot(),
		WriteLatency: s.stats.writeLat.Snapshot(),

		Placement: placement,
	}
	for _, g := range gs {
		cs := g.vol.Stats()
		out.DegradedReads += cs.DegradedReads
		out.CRCReadErrors += cs.CRCReadErrors
		out.PerGroup = append(out.PerGroup, GroupStats{Group: g.id, Cluster: cs})
	}
	s.stats.degradedReads.Set(out.DegradedReads)
	s.stats.crcReadErrors.Set(out.CRCReadErrors)
	return out
}
