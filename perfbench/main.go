// Command perfbench is the repository's benchmark. It runs one workload
// single-process at GOMAXPROCS = number of CPUs, checks every output
// against an oracle, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of standard output:
//
//	go run . -workload analytics -seed 1 -seconds 10 -trace 0
//
// It drives only the public API of pam, internal/parallel, serve and
// rangetree, timing each call into a layer from the outside. README.md
// lists the workloads, the metrics and which layer metric should move
// which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the library sees, printed with
// -trace 0 on every workload. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"recovery_s", "s"},
	{"mem_bytes_per_entry", "B"},
	{"disk_bytes_per_entry", "B"},
	{"heap_mib", "MiB"},
}

// perLayer are the per-layer metrics, printed with -trace 1. A layer a
// workload never calls reads 0.
var perLayer = []metricDef{
	{"pam.build_ms", "ms"},
	{"pam.union_ms", "ms"},
	{"pam.intersect_ms", "ms"},
	{"pam.difference_ms", "ms"},
	{"pam.filter_ms", "ms"},
	{"pam.range_ms", "ms"},
	{"pam.multiinsert_p50_ms", "ms"},
	{"pam.augrange_p50_us", "us"},
	{"pam.augrange_p99_us", "us"},
	{"pam.find_p50_us", "us"},
	{"pam.scan_ns_per_entry", "ns"},
	{"pam.allocs_per_entry", "count"},
	{"parallel.forks", "count"},
	{"parallel.build_speedup", "ratio"},
	{"serve.admit_p50_us", "us"},
	{"serve.admit_p99_us", "us"},
	{"serve.queue_p50_ms", "ms"},
	{"serve.queue_p99_ms", "ms"},
	{"serve.resolve_p50_ms", "ms"},
	{"serve.resolve_p99_ms", "ms"},
	{"serve.readerview_p50_us", "us"},
	{"serve.view_query_p50_us", "us"},
	{"serve.view_query_p99_us", "us"},
	{"serve.flush_latency_max_ms", "ms"},
	{"serve.shard_skew", "ratio"},
	{"fs.sync_count", "count"},
	{"fs.sync_p50_us", "us"},
	{"fs.sync_p99_us", "us"},
	{"fs.syncs_per_batch", "ratio"},
	{"fs.write_bytes", "B"},
	{"fs.write_amp", "ratio"},
	{"fs.busy_s", "s"},
	{"ckpt.count", "count"},
	{"ckpt.compact_count", "count"},
	{"ckpt.write_p50_ms", "ms"},
	{"ckpt.write_max_ms", "ms"},
	{"ckpt.bytes_mean", "B"},
	{"ckpt.ack_stall_max_ms", "ms"},
	{"recovery.chain_files", "count"},
	{"recovery.chain_records", "count"},
	{"recovery.wal_batches", "count"},
	{"rangetree.querysum_p50_us", "us"},
	{"rangetree.querysum_p99_us", "us"},
	{"dynamic.levels", "count"},
	{"dynamic.level_records", "count"},
	{"dynamic.pending_carries_max", "count"},
	{"gc.cycles", "count"},
	{"gc.pause_total_ms", "ms"},
	{"gc.alloc_bytes_per_op", "B"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"loadgen.writes", "count"},
	{"loadgen.reads", "count"},
	{"loadgen.write_p50_ms", "ms"},
	{"loadgen.write_p99_ms", "ms"},
	{"pam.self_s", "s"},
	{"serve.self_s", "s"},
	{"ckpt.self_s", "s"},
	{"fs.self_s", "s"},
	{"rangetree.self_s", "s"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

// env is what a workload gets: its inputs' seed, its time budget, a
// directory for its files, and the tracer (nil in untraced runs).
type env struct {
	seed    uint64
	seconds time.Duration
	dir     string
	tr      *tracer
}

// Each run sets up setupRounds times from scratch and recovers
// recoveryRounds times; setup_s and recovery_s are the medians.
const (
	setupRounds    = 3
	recoveryRounds = 7
)

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64 // end-to-end, and per-layer when traced
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail counts one failed operation and says why on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 20 {
		fmt.Fprintf(os.Stderr, "oracle: "+format+"\n", args...)
	}
}

// check counts one attempted check, failing it when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

var workloads = map[string]func(env) (*outcome, error){
	"analytics":        func(e env) (*outcome, error) { return runAnalytics(e, false) },
	"analytics_packed": func(e env) (*outcome, error) { return runAnalytics(e, true) },
	"durable_kv":       runDurableKV,
	"spatial":          runSpatial,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload: analytics, analytics_packed, durable_kv or spatial")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "measured time of one run")
	trace := flag.Int("trace", 0, "1: print per-layer metrics from a traced run")
	dir := flag.String("dir", ".bench_build/run", "directory for the stores' files")
	spans := flag.String("spans", ".bench_build/spans.tsv", "where a traced run writes its spans")
	flag.Parse()
	body, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	e := env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), dir: *dir}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	var out *outcome
	var err error
	defs := endToEnd
	if *trace == 0 {
		out, err = body(e)
	} else {
		out, err = tracedRun(e, body, *spans)
		defs = perLayer
	}
	if err != nil {
		return err
	}
	return report(out, defs, *trace == 0)
}

// tracedRun runs the workload twice on half the time each, untraced and
// traced, and reports the traced run's per-layer metrics plus the
// tracing overhead on the fixed-work phase.
func tracedRun(e env, body func(env) (*outcome, error), path string) (*outcome, error) {
	e.seconds /= 2
	plain, err := body(e)
	if err != nil {
		return nil, err
	}
	e.tr = newTracer()
	out, err := body(e)
	if err != nil {
		return nil, err
	}
	out.attempted += plain.attempted
	out.failed += plain.failed
	for layer, s := range e.tr.selfTimes() {
		out.metrics[layer+".self_s"] = s
	}
	out.metrics["trace.spans"] = float64(len(e.tr.spans))
	out.metrics["trace.overhead_pct"] = (out.metrics["run_s"]/plain.metrics["run_s"] - 1) * 100
	if err := e.tr.dump(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(e.tr.spans), path)
	return out, nil
}

// report prints every metric the workload measured, then the result
// line with the metrics of defs. Every end-to-end metric must have been
// measured; a per-layer metric of a layer the workload never calls is 0.
func report(out *outcome, defs []metricDef, allRequired bool) error {
	res := resultJSON{Correct: out.failed == 0, Attempted: max(out.attempted, 1), Failed: out.failed,
		Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && allRequired {
			return fmt.Errorf("bug: end-to-end metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %.6g\n", n, out.metrics[n])
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d checked operations failed", out.failed, out.attempted)
	}
	return nil
}
