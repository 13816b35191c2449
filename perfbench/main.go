// Command perfbench is velociti's benchmark: one process runs one workload
// at one seed, checks that every output is correct, and prints its metrics.
//
//	perfbench --workload repro --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// instrumentation: the median set-up time and the process's CPU time per
// unit of the workload's work, both scaled to a reference host speed
// (calib.go), and the process's peak resident memory. With
// --trace 1 it prints the per-layer metrics instead: spans recorded around
// the public calls of each layer (in this package only — the program under
// test is not modified) and counters read from the program's own stats.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// where failed counts every operation that failed or produced output that
// differs from its oracle. Earlier lines are human-readable detail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	// root is the checkout root (committed oracles live under it); out is
	// the directory for trace files.
	root, out string
	// log receives human-readable detail lines.
	log io.Writer
}

// outcome is what a workload reports back.
type outcome struct {
	// setups holds each repetition of the workload's set-up.
	setups []time.Duration
	// units holds the host time of every unit of work done in the
	// measured window (untraced runs only).
	units []time.Duration
	// cals holds the calibration kernel's host time beside the units
	// (untraced runs only); see calib.go.
	cals []time.Duration
	// cpu is the process's user+sys CPU time over the units (untraced
	// runs only). Unlike the units' host times it leaves out time the
	// process waited: for a CPU, or for the host, which on the shared
	// sandbox steals its vCPUs for a minute at a time.
	cpu time.Duration
	// attempted and failed count operations and oracle mismatches.
	attempted, failed int
	// invalid marks a run whose measurement cannot be trusted (the serve
	// load generator fell behind its schedule).
	invalid bool
	// layers holds the per-layer metrics of a traced run.
	layers map[string]metric
	// spans is the traced run's span log, written out at the end.
	spans []span
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"repro":           runRepro,
	"anneal-ablation": runAnnealAblation,
	"anneal-large":    runAnnealLarge,
	"stream":          runStream,
	"serve":           runServe,
}

// perLayer lists the per-layer metrics every traced run prints; a layer
// a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"placement.place_s", "s"},
	{"placement.calls", "count"},
	{"schedule.synth_s", "s"},
	{"schedule.gates", "count"},
	{"perf.build_s", "s"},
	{"perf.bind_s", "s"},
	{"perf.bind.calls", "count"},
	{"perf.time_s", "s"},
	{"perf.time.ns_per_gate_lane", "ns"},
	{"perf.constrained_s", "s"},
	{"shuttle.compare_s", "s"},
	{"fidelity.estimate_s", "s"},
	{"core.other_s", "s"},
	{"trace.overhead_s", "s"},
	{"search.move_us.qft32", "us"},
	{"search.move_us.sup64", "us"},
	{"search.move_us.sup576", "us"},
	{"search.delta_swap_us.qft32", "us"},
	{"search.delta_swap_us.sup64", "us"},
	{"search.delta_swap_us.sup576", "us"},
	{"search.full_cost_us.qft32", "us"},
	{"search.full_cost_us.sup64", "us"},
	{"search.full_cost_us.sup576", "us"},
	{"search.cone_fallback_frac.qft32", "ratio"},
	{"search.cone_fallback_frac.sup64", "ratio"},
	{"search.cone_fallback_frac.sup576", "ratio"},
	{"stream.emit_ns_per_gate", "ns"},
	{"stream.ns_per_gate.weaklink", "ns"},
	{"stream.ns_per_gate.shuttle", "ns"},
	{"stream.materialized_ns_per_gate", "ns"},
	{"cache.place.hit_ratio", "ratio"},
	{"cache.place.evictions", "count"},
	{"cache.synth.hit_ratio", "ratio"},
	{"cache.synth.evictions", "count"},
	{"cache.search.hit_ratio", "ratio"},
	{"cache.search.evictions", "count"},
	{"cache.bind.hit_ratio", "ratio"},
	{"cache.bind.evictions", "count"},
	{"cache.stream.hit_ratio", "ratio"},
	{"cache.stream.evictions", "count"},
	{"serve.overhead_ms.evaluate", "ms"},
	{"serve.overhead_ms.sweep", "ms"},
	{"serve.overhead_ms.explore", "ms"},
	{"serve.coalesced_frac", "ratio"},
	{"serve.rejected", "count"},
	{"serve.generator_late_ms", "ms"},
	{"serve.req_p50_ms", "ms"},
	{"serve.req_p99_ms", "ms"},
	{"runtime.alloc_mib", "MiB"},
	{"runtime.gc_cpu_frac", "ratio"},
}

func main() {
	res, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run parses the flags, runs the workload, and assembles the result.
func run(args []string, log io.Writer) (*result, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: repro, anneal-ablation, anneal-large, stream, serve")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	root := fs.String("root", ".", "checkout root holding the committed results/ oracles")
	out := fs.String("out", ".bench_build", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	w, ok := workloads[*name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, root: *root, out: *out, log: log}

	before := readRuntime()
	o, err := w(cfg)
	if err != nil {
		return nil, err
	}
	after := readRuntime()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}

	res := &result{
		Correct:   o.failed == 0 && !o.invalid && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	if !cfg.traced {
		if len(o.setups) == 0 || len(o.units) == 0 || len(o.cals) == 0 {
			return nil, fmt.Errorf("workload %s measured nothing", *name)
		}
		setup := median(seconds64(o.setups))
		res.Metrics["setup_s"] = metric{Value: refScale(setup, o.cals), Unit: "s"}
		cpu := o.cpu.Seconds() / float64(len(o.units))
		res.Metrics["cpu_ref_s"] = metric{Value: refScale(cpu, o.cals), Unit: "s"}
		// Linux reports the peak resident set in KiB.
		res.Metrics["peak_rss_mib"] = metric{Value: float64(ru.Maxrss) / 1024, Unit: "MiB"}
		wall := median(seconds64(o.units))
		fmt.Fprintf(log, "%s: %d units, failed %d/%d; host time: median setup %.6g s (%d reps), cpu per unit %.6g s (user+sys), median unit wall %.6g s (%.6g s at reference speed); calibration kernel median %.6g s over %d\n",
			*name, len(o.units), o.failed, o.attempted, setup, len(o.setups), cpu, wall, refScale(wall, o.cals),
			median(seconds64(o.cals)), len(o.cals))
		return res, nil
	}
	layers := o.layers
	if layers == nil {
		layers = map[string]metric{}
	}
	layers["runtime.alloc_mib"] = metric{Value: (after.allocBytes - before.allocBytes) / (1 << 20), Unit: "MiB"}
	if busy := (after.cpuTotal - after.cpuIdle) - (before.cpuTotal - before.cpuIdle); busy > 0 {
		layers["runtime.gc_cpu_frac"] = metric{Value: (after.cpuGC - before.cpuGC) / busy, Unit: "ratio"}
	}
	for _, m := range perLayer {
		v := layers[m.name]
		res.Metrics[m.name] = metric{Value: v.Value, Unit: m.unit}
	}
	if len(o.spans) > 0 {
		path := filepath.Join(cfg.out, fmt.Sprintf("perfbench-trace-%s-%d.jsonl", *name, *seed))
		if err := writeSpans(path, o.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "%s: %d spans written to %s\n", *name, len(o.spans), path)
	}
	return res, nil
}

// runtimeSample is a point-in-time read of the runtime counters the
// traced run reports.
type runtimeSample struct {
	allocBytes, cpuGC, cpuIdle, cpuTotal float64
}

func readRuntime() runtimeSample {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	value := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: value(samples[0]), cpuGC: value(samples[1]), cpuIdle: value(samples[2]), cpuTotal: value(samples[3])}
}

// measure runs unit repeatedly while another unit fits in the window of
// cfg.seconds, at least minUnits times (once for a window under a second,
// a smoke run), and returns each unit's host time. Each unit starts from a
// collected heap, so no unit pays for its predecessor's garbage and the
// peak memory does not depend on where collections happened to fall.
//
// For an untraced run, o is not nil: the calibration kernel runs on the
// collected heap before each unit and once after the last (o.cals), and
// the units' user+sys CPU time is summed in o.cpu.
func measure(cfg runConfig, minUnits int, o *outcome, unit func(i int) error) ([]time.Duration, error) {
	if cfg.seconds < 1 {
		minUnits = 1
	}
	var times []time.Duration
	var c0 time.Duration
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		// After minUnits, start a unit only if one as long as the last
		// still ends inside the window.
		if i >= minUnits && time.Since(start)+times[i-1] > window {
			break
		}
		runtime.GC()
		if o != nil {
			o.cals = append(o.cals, calibrate())
			var err error
			if c0, err = cpuTime(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := unit(i); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0))
		if o != nil {
			c1, err := cpuTime()
			if err != nil {
				return nil, err
			}
			o.cpu += c1 - c0
		}
	}
	if o != nil {
		runtime.GC()
		o.cals = append(o.cals, calibrate())
	}
	return times, nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// Each workload repeats its set-up at least setupMinReps and at most
// setupMaxReps times, until setupWindow has passed; setup_s is the
// median. A set-up of a few microseconds gets hundreds of repetitions, so
// its median is not at the mercy of one interrupt.
const (
	setupMinReps = 15
	setupMaxReps = 500
	setupWindow  = time.Second
)

// repeatSetup runs build repeatedly, each from a collected heap, and
// returns the last result and the host time of each repetition. Every
// earlier result is handed to discard (when not nil), untimed.
func repeatSetup[T any](build func() (T, error), discard func(T)) (T, []time.Duration, error) {
	var v T
	var times []time.Duration
	start := time.Now()
	for i := 0; i < setupMinReps || (i < setupMaxReps && time.Since(start) < setupWindow); i++ {
		if i > 0 && discard != nil {
			discard(v)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		v, err = build()
		if err != nil {
			return v, nil, err
		}
		times = append(times, time.Since(t0))
	}
	return v, times, nil
}

func seconds64(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
