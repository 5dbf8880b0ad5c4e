package main

import (
	"fmt"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/shard"
)

// counters is a flat copy of the layer counters and histograms the
// per-layer metrics read, taken from the Stats() snapshots, the
// blockserver metrics and the Store wrapper. Being flat, two copies
// difference and add key by key, so the traced run can sum the
// activity of many stretches and leave out the benchmark's own
// verification between them. A layer a workload does not run has no
// keys.
type counters struct {
	v map[string]float64
	h map[string]obs.HistSnapshot
}

func newCounters() counters {
	return counters{v: map[string]float64{}, h: map[string]obs.HistSnapshot{}}
}

// sub returns the activity between snapshot b and snapshot c.
func (c counters) sub(b counters) counters {
	d := newCounters()
	for k, x := range c.v {
		d.v[k] = x - b.v[k]
	}
	for k, x := range c.h {
		d.h[k] = histDelta(b.h[k], x)
	}
	return d
}

// add folds the activity d into c.
func (c counters) add(d counters) {
	for k, x := range d.v {
		c.v[k] += x
	}
	for k, x := range d.h {
		c.h[k] = histAdd(c.h[k], x)
	}
}

// addCluster records one or more cluster volumes, summed. Per-backend
// rebuild reads are kept only for a single volume, where a backend
// index names one disk.
func (c counters) addCluster(ss ...cluster.Stats) {
	for _, s := range ss {
		c.h["cluster.read"] = histAdd(c.h["cluster.read"], s.ReadLatency)
		c.h["cluster.write"] = histAdd(c.h["cluster.write"], s.WriteLatency)
		c.h["cluster.fetch"] = histAdd(c.h["cluster.fetch"], s.Hedge.FetchLatency)
		c.h["rebuild.slice"] = histAdd(c.h["rebuild.slice"], s.Rebuild.SliceLatency)
		c.h["pipeline.queue_wait"] = histAdd(c.h["pipeline.queue_wait"], s.Pipeline.QueueWait)
		c.v["cluster.elements_read"] += float64(s.ElementsRead)
		c.v["cluster.degraded_reads"] += float64(s.DegradedReads)
		c.v["cluster.write_batches"] += float64(s.WriteBatches)
		c.v["cluster.write_batch_elements"] += float64(s.WriteBatchElements)
		c.v["rebuild.bytes"] += float64(s.Rebuild.Bytes)
		c.v["rebuild.stripes"] += float64(s.Rebuild.Stripes)
		c.v["rebuild.seconds"] += s.Rebuild.Seconds
		c.v["qos.wait_s"] += s.QoS.WaitSeconds
		for i, b := range s.Backends {
			c.v["pool.requests"] += float64(b.Requests)
			c.v["pool.retries"] += float64(b.Retries)
			c.v["pool.dials"] += float64(b.Dials)
			c.v["pool.errors"] += float64(b.Errors)
			c.v["pool.poisoned"] += float64(b.Poisoned)
			if len(ss) == 1 {
				c.v[fmt.Sprintf("rebuild.reads.%d", i)] = float64(b.RebuildReadElements)
			}
		}
	}
}

func (c counters) addShard(s shard.Stats) {
	c.v["shard.ops"] = float64(s.Reads + s.Writes)
	c.v["shard.splits"] = float64(s.BoundarySplits)
	var groups []cluster.Stats
	for _, g := range s.PerGroup {
		groups = append(groups, g.Cluster)
	}
	c.addCluster(groups...)
}

func (c counters) addServers(s blockserver.MetricsSnapshot) {
	for name, op := range s.Ops {
		c.h["blockserver."+name] = op.Lat
		c.v["blockserver.frames"] += float64(op.Ops)
	}
	c.v["blockserver.zero_copy"] = float64(s.ZeroCopy)
	c.v["blockserver.bytes_in"] = float64(s.BytesIn)
	c.v["blockserver.bytes_out"] = float64(s.BytesOut)
	c.v["blockserver.torn"] = float64(s.ConnsTorn)
}

func (c counters) addStores(s *storeCounters) {
	c.v["store.reads"] = float64(s.reads.Load())
	c.v["store.writes"] = float64(s.writes.Load())
	c.v["store.slices"] = float64(s.slices.Load())
	c.v["store.busy_ns"] = float64(s.busy.Load())
	c.v["store.bytes_written"] = float64(s.bytesWritten.Load())
}

func (c counters) addDevice(h dev.Health) {
	c.v["dev.elements_read"] = float64(h.ElementsRead)
	c.v["dev.degraded_reads"] = float64(h.DegradedReads)
	c.v["dev.parity_fallbacks"] = float64(h.ParityFallbacks)
	c.v["dev.stripes_rebuilt"] = float64(h.StripesRebuilt)
}

// perLayerNames lists every per-layer metric with its unit, in report
// order. A traced run reports each of them, with 0 for layers the
// workload does not run.
var perLayerNames = []struct{ name, unit string }{
	{"shard.op_us", "us"},
	{"shard.self_us", "us"},
	{"shard.child_ops_per_op", "count/op"},
	{"shard.boundary_split_frac", "ratio"},
	{"cluster.read_us", "us"},
	{"cluster.write_us", "us"},
	{"cluster.fetch_us", "us"},
	{"cluster.plan_us", "us"},
	{"cluster.fetches_per_read", "count/op"},
	{"cluster.write_frames_per_write", "count/op"},
	{"cluster.elements_per_frame", "count"},
	{"cluster.degraded_read_frac", "ratio"},
	{"rebuild.mb_per_s", "MB/s"},
	{"rebuild.slice_p99_ms", "ms"},
	{"rebuild.rerecovered_frac", "ratio"},
	{"rebuild.source_max_min", "ratio"},
	{"qos.wait_s", "s"},
	{"pool.requests_per_op", "count/op"},
	{"pool.retries", "count"},
	{"pool.dials", "count"},
	{"pool.errors", "count"},
	{"pool.poisoned", "count"},
	{"pipeline.queue_wait_us", "us"},
	{"blockserver.readv_us", "us"},
	{"blockserver.writev_us", "us"},
	{"wire.client_us", "us"},
	{"blockserver.frames_per_op", "count/op"},
	{"blockserver.zero_copy_frac", "ratio"},
	{"blockserver.read_amp", "ratio"},
	{"blockserver.write_amp", "ratio"},
	{"blockserver.torn_conns", "count"},
	{"store.busy_us_per_op", "us"},
	{"store.read_calls_per_op", "count/op"},
	{"store.write_calls_per_op", "count/op"},
	{"store.slice_calls_per_op", "count/op"},
	{"store.bytes_written_per_user_byte", "ratio"},
	{"dev.degraded_read_frac", "ratio"},
	{"dev.parity_fallback_frac", "ratio"},
	{"dev.stripes_rebuilt", "count"},
	{"workload.late_p99_us", "us"},
	{"workload.inflight_max", "count"},
	{"ladder.store.read_us", "us"},
	{"ladder.store.write_us", "us"},
	{"ladder.wire.read_us", "us"},
	{"ladder.wire.write_us", "us"},
	{"ladder.cluster.read_us", "us"},
	{"ladder.cluster.write_us", "us"},
	{"ladder.shard.read_us", "us"},
	{"ladder.shard.write_us", "us"},
	{"trace.overhead_frac", "ratio"},
}

// perLayer turns the traced activity d, the traced user ops and the
// spans into the per-layer metrics.
func perLayer(m metricSet, d counters, rec *recorder, tr *tracer, sys *system) {
	units := map[string]string{}
	for _, nu := range perLayerNames {
		units[nu.name] = nu.unit
		m.set(nu.name, 0, nu.unit)
	}
	set := func(name string, v float64) {
		unit, ok := units[name]
		if !ok {
			panic("perfbench: undeclared per-layer metric " + name)
		}
		m.set(name, v, unit)
	}
	ops := float64(rec.ops())
	v := d.v
	mean := func(h string) float64 { return us(d.h[h].Mean()) }

	if shardOps := v["shard.ops"]; shardOps > 0 {
		child := histAdd(d.h["cluster.read"], d.h["cluster.write"])
		opUS := tr.mean("shard.read", "shard.write")
		set("shard.op_us", opUS)
		// Each group runs its child ops in sequence and the groups run in
		// parallel, so an op spread evenly over every group waits for
		// about 1/groups of its summed child time.
		set("shard.self_us", opUS-ratio(us(child.Sum), shardOps*float64(sys.shardGroups)))
		set("shard.child_ops_per_op", ratio(float64(child.Count), shardOps))
		set("shard.boundary_split_frac", ratio(v["shard.splits"], shardOps))
	}

	if _, ok := d.h["cluster.read"]; ok {
		set("cluster.read_us", mean("cluster.read"))
		set("cluster.write_us", mean("cluster.write"))
		set("cluster.fetch_us", mean("cluster.fetch"))
		set("cluster.plan_us", mean("cluster.read")-mean("cluster.fetch"))
		set("cluster.fetches_per_read", ratio(float64(d.h["cluster.fetch"].Count), float64(d.h["cluster.read"].Count)))
		set("cluster.write_frames_per_write", ratio(v["cluster.write_batches"], float64(d.h["cluster.write"].Count)))
		set("cluster.elements_per_frame", ratio(v["cluster.write_batch_elements"], v["cluster.write_batches"]))
		set("cluster.degraded_read_frac", ratio(v["cluster.degraded_reads"], v["cluster.elements_read"]))
		set("rebuild.mb_per_s", ratio(v["rebuild.bytes"]/1e6, v["rebuild.seconds"]))
		set("rebuild.slice_p99_ms", float64(d.h["rebuild.slice"].Quantile(0.99))/float64(time.Millisecond))
		if cycles := len(rec.rebuilds); cycles > 0 && sys.diskStripes > 0 {
			want := float64(cycles * sys.diskStripes)
			set("rebuild.rerecovered_frac", (v["rebuild.stripes"]-want)/want)
		}
		var reads []float64
		for i := 0; ; i++ {
			r, ok := v[fmt.Sprintf("rebuild.reads.%d", i)]
			if !ok {
				break
			}
			reads = append(reads, r)
		}
		set("rebuild.source_max_min", sourceMaxMin(reads))
		set("qos.wait_s", v["qos.wait_s"])
		set("pool.requests_per_op", ratio(v["pool.requests"], ops))
		set("pool.retries", v["pool.retries"])
		set("pool.dials", v["pool.dials"])
		set("pool.errors", v["pool.errors"])
		set("pool.poisoned", v["pool.poisoned"])
		set("pipeline.queue_wait_us", mean("pipeline.queue_wait"))
	}

	if frames := v["blockserver.frames"]; frames > 0 {
		set("blockserver.readv_us", mean("blockserver.readv"))
		set("blockserver.writev_us", mean("blockserver.writev"))
		set("wire.client_us", mean("cluster.fetch")-mean("blockserver.readv"))
		set("blockserver.frames_per_op", ratio(frames, ops))
		set("blockserver.zero_copy_frac", ratio(v["blockserver.zero_copy"], frames))
		set("blockserver.read_amp", ratio(v["blockserver.bytes_out"], float64(rec.readBytes)))
		set("blockserver.write_amp", ratio(v["blockserver.bytes_in"], float64(rec.writeBytes)))
		set("blockserver.torn_conns", v["blockserver.torn"])
		set("store.busy_us_per_op", ratio(v["store.busy_ns"]/1e3, ops))
		set("store.read_calls_per_op", ratio(v["store.reads"], ops))
		set("store.write_calls_per_op", ratio(v["store.writes"], ops))
		set("store.slice_calls_per_op", ratio(v["store.slices"], ops))
		set("store.bytes_written_per_user_byte", ratio(v["store.bytes_written"], float64(rec.writeBytes)))
	}

	if read := v["dev.elements_read"]; read > 0 {
		set("dev.degraded_read_frac", ratio(v["dev.degraded_reads"], read))
		set("dev.parity_fallback_frac", ratio(v["dev.parity_fallbacks"], read))
		set("dev.stripes_rebuilt", v["dev.stripes_rebuilt"])
	}

	if len(rec.late) > 0 {
		set("workload.late_p99_us", summarize(rec.late).P99)
		set("workload.inflight_max", float64(rec.inflightMax))
	}
}

// sourceMaxMin is the ratio of the most to the least elements any
// source backend served to a rebuild (backends that served none are not
// sources). 1 means a perfectly even fan-out.
func sourceMaxMin(reads []float64) float64 {
	var lo, hi float64
	for _, r := range reads {
		if r <= 0 {
			continue
		}
		if lo == 0 || r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	return ratio(hi, lo)
}
