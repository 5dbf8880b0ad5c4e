// Command perfbench is the repository's end-to-end benchmark. One
// process runs one named workload: the load generator, the volume and
// its loopback backends all live in it. Every byte read is checked
// against an oracle. The last line of standard output is one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1); the line before it is a report with the
// environment, sample counts and every metric that applies.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload small-mixed --seed 1 --seconds 10 --trace 0
//
// README.md in this directory lists the workloads, the metrics and the
// layer each per-layer metric belongs to.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"shiftedmirror/internal/gf"
)

// workloads maps each workload name to its set-up function.
var workloads = map[string]func(e *env) (*system, error){
	"small-mixed":        setupSmallMixed,
	"stream-sharded":     setupStreamSharded,
	"rebuild-under-load": setupRebuildUnderLoad,
	"local-parity":       setupLocalParity,
}

// endToEnd names the end-to-end metrics every workload reports on the
// result line of an untraced run. The other end-to-end numbers are in
// the report line: ops/s and MB/s of the closed loops, rebuild time and
// degraded-read latency of the rebuild workloads, which apply to some
// workloads only, and the p99s, which spread too far from run to run on
// rebuild-under-load to bound.
var endToEnd = []string{
	"setup_s",
	"read_p50_us", "write_p50_us",
	"alloc_bytes_per_kib", "heap_inuse_mb",
}

// lateBound is the open-loop validity bound: a run whose dispatcher
// started its p99 op later than this after the op was due measured the
// generator, not the volume, and is marked invalid.
const lateBound = 5 * time.Millisecond

// setupReps is how many times an untraced run sets its system up; it
// reports the median as setup_s and measures the last one.
const setupReps = 5

// env is one run's configuration.
type env struct {
	seed    int64
	seconds float64
	tr      *tracer // nil unless this is the traced run
	dir     string  // run directory for disk images, inside the checkout
	// shrink divides every workload's data size; the self-tests use it
	// for quick smoke runs. 0 means full size.
	shrink int64
}

func (e *env) window() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

func (e *env) size(full int64) int64 {
	if e.shrink > 1 {
		return full / e.shrink
	}
	return full
}

// system is one set-up workload, ready to measure.
type system struct {
	// measure runs the workload for about d, adding its user ops to rec.
	measure func(ctx context.Context, d time.Duration, rec *recorder) error
	// snap captures the layer counters for the traced run.
	snap func() counters
	// check verifies the volume after measuring: a full read-back and a
	// scrub that must come back clean.
	check func(ctx context.Context) error
	close func()
	// diskStripes is the stripe count of one rebuilt disk.
	diskStripes int
	// cycleBytes is how many bytes one rebuild cycle restores.
	cycleBytes int64
	// shardGroups is the group count of a sharded volume.
	shardGroups int
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", workloadNames())
		os.Exit(2)
	}
	if err := run(*name, setup, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// report is the line before the result: everything a reader needs to
// interpret and reproduce the run.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Traced   bool           `json:"traced"`
	Env      map[string]any `json:"env"`
	Samples  map[string]int `json:"samples"`
	Valid    bool           `json:"valid"`
	Invalid  string         `json:"invalid,omitempty"`
	Checks   string         `json:"checks"`
	Metrics  metricSet      `json:"metrics"`
}

// result is the last line of output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func run(name string, setup func(*env) (*system, error), seed int64, seconds float64, traced bool) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, seconds: seconds, dir: dir}
	if traced {
		e.tr = newTracer(1 << 17)
	}
	ctx := context.Background()

	reps := setupReps
	if traced {
		reps = 1
	}
	var sys *system
	var setups []float64
	for i := 0; i < reps; i++ {
		if sys != nil {
			sys.close()
			runtime.GC()
		}
		start := time.Now()
		if sys, err = setup(e); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer sys.close()

	rep := report{Workload: name, Seed: seed, Seconds: seconds, Traced: traced, Env: environment(),
		Samples: map[string]int{}, Valid: true, Checks: "ok", Metrics: metricSet{}}
	rec := newRecorder(1 << 12)
	if traced {
		err = measureTraced(ctx, e, sys, rec, rep.Metrics)
	} else {
		err = measureUntraced(ctx, e, sys, rec, rep.Metrics)
		rep.Metrics.set("setup_s", median(setups), "s")
	}
	if err == nil {
		err = sys.check(ctx)
	}
	switch {
	case err != nil:
		rep.Checks = err.Error()
	case rec.failed > 0:
		rep.Checks = fmt.Sprintf("%d of %d ops failed, first: %s", rec.failed, rec.attempted, rec.firstErr)
	}
	rep.Metrics.set("failed_op_frac", ratio(float64(rec.failed), float64(rec.attempted)), "ratio")
	for _, kind := range []struct {
		name string
		d    []time.Duration
	}{{"read", rec.reads}, {"write", rec.writes}, {"degraded_read", rec.degraded}} {
		s := summarize(kind.d)
		rep.Samples[kind.name] = s.N
		if !traced {
			s.report(rep.Metrics, kind.name)
		}
	}
	rep.Samples["rebuild"] = len(rec.rebuilds)
	if len(rec.late) > 0 {
		late := summarize(rec.late)
		rep.Samples["late"] = late.N
		if late.P99 > us(lateBound) {
			rep.Valid = false
			rep.Invalid = fmt.Sprintf("open-loop dispatcher p99 lateness %.0fus exceeds %v", late.P99, lateBound)
		}
	}
	if !traced {
		// The live heap of the system under test, without the latency
		// samples the benchmark kept.
		rec.reads, rec.writes, rec.degraded, rec.late = nil, nil, nil, nil
		// Two collections: the first moves sync.Pool contents to the
		// victim cache, the second frees them.
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(sys)
		rep.Metrics.set("heap_inuse_mb", float64(ms.HeapInuse)/(1<<20), "MB")
	}

	res := result{Correct: rep.Checks == "ok", Attempted: rec.attempted, Failed: rec.failed, Metrics: metricSet{}}
	names := endToEnd
	if traced {
		names = nil
		for _, nu := range perLayerNames {
			names = append(names, nu.name)
		}
		if err := e.tr.dump(filepath.Join(".bench_build", "spans-"+name+".txt")); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	var missing []string
	for _, n := range names {
		if m, ok := rep.Metrics[n]; ok {
			res.Metrics[n] = m
		} else {
			missing = append(missing, n)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("report: %s\n", line)
	switch {
	case len(missing) > 0:
		return fmt.Errorf("too few samples for %v (samples %v)", missing, rep.Samples)
	case res.Attempted == 0:
		return fmt.Errorf("no operation was attempted")
	}
	if line, err = json.Marshal(res); err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("output check failed: %s", rep.Checks)
	}
	return nil
}

// measureUntraced runs the measurement window and derives the
// end-to-end metrics that do not come from the latency samples.
func measureUntraced(ctx context.Context, e *env, sys *system, rec *recorder, m metricSet) error {
	runtime.GC()
	rec.meter = newMeter(nil, nil)
	own := rec.own
	rec.meter.begin()
	if err := sys.measure(ctx, e.window(), rec); err != nil {
		return err
	}
	rec.meter.end()
	// The latency records are the benchmark's, not the system's.
	alloc := rec.meter.acc.v["runtime.alloc_bytes"] - float64(rec.own-own)
	m.set("alloc_bytes_per_op", ratio(alloc, float64(rec.attempted)), "B/op")
	moved := rec.readBytes + rec.writeBytes + int64(len(rec.rebuilds))*sys.cycleBytes
	m.set("alloc_bytes_per_kib", ratio(alloc, float64(moved)/1024), "B/KiB")
	if len(rec.late) == 0 && len(rec.rebuilds) == 0 {
		secs := rec.elapsed.Seconds()
		m.set("ops_per_s", ratio(float64(rec.ops()), secs), "1/s")
		m.set("mb_per_s", ratio(float64(rec.readBytes+rec.writeBytes)/1e6, secs), "MB/s")
	}
	if len(rec.rebuilds) > 0 {
		m.set("rebuild_s", median(rec.rebuilds), "s")
	}
	return nil
}

// measureTraced runs a quarter of the window untraced as the baseline,
// then the rest with tracing on, and derives the per-layer metrics from
// the traced part. The ladder rungs run last.
func measureTraced(ctx context.Context, e *env, sys *system, rec *recorder, m metricSet) error {
	base := newRecorder(1 << 18)
	if err := sys.measure(ctx, e.window()/4, base); err != nil {
		return err
	}
	rec.meter = newMeter(sys.snap, e.tr)
	rec.meter.begin()
	if err := sys.measure(ctx, e.window()*3/4, rec); err != nil {
		return err
	}
	rec.meter.end()
	rec.attempted += base.attempted
	rec.failed += base.failed
	if rec.firstErr == "" {
		rec.firstErr = base.firstErr
	}
	perLayer(m, rec.meter.acc, rec, e.tr, sys)
	m.set("trace.overhead_frac", ratio(rec.meanOp(), base.meanOp())-1, "ratio")
	return ladder(ctx, e, m, rec)
}

func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"gf_kernel":  gf.ActiveKernel().String(),
	}
}
