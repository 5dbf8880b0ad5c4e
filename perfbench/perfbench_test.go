package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"shiftedmirror/internal/obs"
)

func TestNearestRankAndTenBeyond(t *testing.T) {
	mk := func(n int) []time.Duration {
		d := make([]time.Duration, n)
		for i := range d {
			d[i] = time.Duration(n-i) * time.Microsecond // descending: summarize must sort
		}
		return d
	}
	s := summarize(mk(1000))
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || !s.ok99 {
		t.Fatalf("1000 samples: got %+v, want p50 500, p99 990 with the p99 reported", s)
	}
	// 999 samples: the p99 is rank 990, leaving only 9 beyond it.
	if s := summarize(mk(999)); s.ok99 {
		t.Fatalf("999 samples: p99 %v reported with %d samples beyond it", s.P99, beyond(999, 0.99))
	}
	m := metricSet{}
	summarize(mk(999)).report(m, "read")
	if _, ok := m["read_p99_us"]; ok {
		t.Fatal("report kept a p99 without ten samples beyond it")
	}
	if m["read_p50_us"].Value != 500 {
		t.Fatalf("read_p50_us = %v, want 500", m["read_p50_us"].Value)
	}
	if beyond(0, 0.99) != 0 || beyond(1, 0.5) != 0 || beyond(2000, 0.99) != 20 {
		t.Fatal("beyond miscounts")
	}
}

func TestRecorderCountsItsOwnAllocation(t *testing.T) {
	r := newRecorder(16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	own := r.own
	for i := 0; i < 1<<16; i++ {
		r.push(&r.reads, time.Duration(i))
	}
	o := newRecorder(16)
	o.push(&o.writes, 1)
	r.merge(o)
	runtime.ReadMemStats(&after)
	got, alloc := float64(r.own-own), float64(after.TotalAlloc-before.TotalAlloc)
	if got < 0.95*alloc || got > alloc {
		t.Fatalf("recorder counted %v bytes, the runtime allocated %v", got, alloc)
	}
}

func TestHistogramDeltaMean(t *testing.T) {
	h := obs.NewHistogram()
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	before := h.Snapshot()
	h.Observe(10 * time.Microsecond)
	h.Observe(30 * time.Microsecond)
	d := histDelta(before, h.Snapshot())
	if d.Count != 2 || d.Mean() != 20*time.Microsecond {
		t.Fatalf("delta count %d mean %v, want 2 and 20µs", d.Count, d.Mean())
	}
	var buckets uint64
	for _, c := range d.Counts {
		buckets += c
	}
	if buckets != 2 {
		t.Fatalf("delta buckets hold %d observations, want 2", buckets)
	}
	if sum := histAdd(d, d); sum.Count != 4 || sum.Mean() != 20*time.Microsecond {
		t.Fatalf("histAdd: count %d mean %v", sum.Count, sum.Mean())
	}

	// counters difference and accumulate key by key.
	a, b := newCounters(), newCounters()
	a.v["x"], b.v["x"] = 3, 10
	a.h["h"], b.h["h"] = before, h.Snapshot()
	acc := newCounters()
	acc.add(b.sub(a))
	acc.add(b.sub(a))
	if acc.v["x"] != 14 || acc.h["h"].Count != 4 {
		t.Fatalf("accumulated %v and %d observations, want 14 and 4", acc.v["x"], acc.h["h"].Count)
	}
}

func TestOracleRejectsWrongBytes(t *testing.T) {
	o := newOracle(5, 64<<10, 4096)
	buf := make([]byte, 4096)
	o.fill(buf, 3, 7)
	if !o.check(buf, 3, 7) {
		t.Fatal("payload does not check against itself")
	}
	if o.check(buf, 3, 6) || o.check(buf, 4, 7) {
		t.Fatal("payload checks against another version or slot")
	}
	buf[2000] ^= 1
	if o.check(buf, 3, 7) {
		t.Fatal("a flipped byte went unnoticed")
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced:
// no op may fail, every read must match the oracle, the rebuild
// workloads must complete cycles (each checks P1, read-back and scrub)
// and the final check must pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds")
	}
	ctx := context.Background()
	for name, setup := range workloads {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 3, seconds: 0.4, dir: t.TempDir(), shrink: 32}
			if traced {
				e.tr = newTracer(1 << 12)
			}
			sys, err := setup(e)
			if err != nil {
				t.Fatalf("%s: set-up: %v", name, err)
			}
			rec := newRecorder(1 << 10)
			if traced {
				rec.meter = newMeter(sys.snap, e.tr)
				rec.meter.begin()
			}
			err = sys.measure(ctx, e.window(), rec)
			if traced {
				rec.meter.end()
			}
			if err == nil {
				err = sys.check(ctx)
			}
			sys.close()
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if rec.failed != 0 || rec.ops() == 0 {
				t.Fatalf("%s (traced %v): %d of %d ops failed (%s)", name, traced, rec.failed, rec.attempted, rec.firstErr)
			}
			if (name == "rebuild-under-load" || name == "local-parity") && len(rec.rebuilds) == 0 {
				t.Fatalf("%s: no rebuild cycle completed", name)
			}
			if !traced {
				continue
			}
			m := metricSet{}
			perLayer(m, rec.meter.acc, rec, e.tr, sys)
			for _, nu := range perLayerNames {
				if _, ok := m[nu.name]; !ok {
					t.Fatalf("%s: per-layer metric %s missing", name, nu.name)
				}
			}
			if name != "stream-sharded" && m["shard.op_us"].Value != 0 {
				t.Errorf("%s: shard.op_us = %v on a workload without a shard", name, m["shard.op_us"].Value)
			}
			if name == "stream-sharded" {
				if op, self := m["shard.op_us"].Value, m["shard.self_us"].Value; !(self > 0 && self < op) {
					t.Errorf("shard self time %v not within its op time %v", self, op)
				}
			}
			if name == "small-mixed" {
				read, fetch := m["cluster.read_us"].Value, m["cluster.fetch_us"].Value
				readv, store := m["blockserver.readv_us"].Value, m["store.busy_us_per_op"].Value
				if !(read >= fetch && fetch >= readv && readv >= store && store > 0) {
					t.Errorf("layer means do not nest: cluster.read %v, cluster.fetch %v, blockserver.readv %v, store.busy %v",
						read, fetch, readv, store)
				}
			}
			if name == "rebuild-under-load" {
				if got := m["rebuild.source_max_min"].Value; got != 1 {
					t.Errorf("shifted rebuild fan-out max/min = %v, want 1", got)
				}
				if got := m["rebuild.rerecovered_frac"].Value; got != 0 {
					t.Errorf("rebuild re-recovered %v of its stripes", got)
				}
			}
		}
	}
}

func TestLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("the ladder runs for about a second")
	}
	m, rec := metricSet{}, newRecorder(0)
	if err := ladder(context.Background(), &env{seed: 4}, m, rec); err != nil {
		t.Fatal(err)
	}
	if rec.failed != 0 {
		t.Fatalf("%d ladder ops failed: %s", rec.failed, rec.firstErr)
	}
	for _, rung := range []string{"store", "wire", "cluster", "shard"} {
		for _, op := range []string{"read", "write"} {
			if v := m["ladder."+rung+"."+op+"_us"].Value; v <= 0 {
				t.Errorf("ladder.%s.%s_us = %v", rung, op, v)
			}
		}
	}
	if m["ladder.store.read_us"].Value >= m["ladder.cluster.read_us"].Value {
		t.Errorf("a MemStore read (%vus) is not cheaper than a cluster read (%vus)",
			m["ladder.store.read_us"].Value, m["ladder.cluster.read_us"].Value)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and perfbench naming the same
// workloads and metrics.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	var wl, pl []string
	for n := range workloads {
		wl = append(wl, n)
	}
	for _, nu := range perLayerNames {
		pl = append(pl, nu.name)
	}
	e2e := append([]string(nil), endToEnd...)
	for _, c := range []struct {
		what      string
		json, drv []string
	}{{"workloads", names(spec.Workloads), wl}, {"end_to_end", names(spec.EndToEnd), e2e}, {"per_layer", names(spec.PerLayer), pl}} {
		sort.Strings(c.drv)
		if a, b := c.json, c.drv; len(a) != len(b) {
			t.Errorf("%s: BENCHMARK.json has %v, perfbench has %v", c.what, a, b)
		} else {
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("%s: BENCHMARK.json has %v, perfbench has %v", c.what, a, b)
					break
				}
			}
		}
	}
}
