// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time with inputs generated from a seed, checks the
// program's outputs, and prints one JSON result line:
//
//	perfbench -workload offload-pcie -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With -trace 1 the run records spans around the calls into
// each layer and the result carries the per-layer metrics instead; the
// spans are written to -spans-dir when the run ends. A line before the
// result holds the run's provenance, configuration and step breakdown.
// The command exits non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"jpegact/internal/benchmeta"
)

// processStart stands in for the process start time: package
// initialisation runs before main and before any workload set-up.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
}

// outcome is what a workload hands back: both metric sets (the caller
// prints the one the mode asks for), the operation counts, the failed
// output checks and free-form details for the report line.
type outcome struct {
	endToEnd  map[string]metric
	perLayer  map[string]metric
	attempted int64
	failed    int64
	problems  []string
	details   map[string]any
	rec       *recorder
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// endToEndUnits and perLayerUnits name every metric the result line
// carries, as BENCHMARK.json declares them. A workload's other
// end-to-end figures (step_ms_p90, op_ms_p99, final_loss and
// failed_op_ratio) go to the report line: the tail percentiles spread
// across runs on a shared machine by more than any bound the benchmark
// may set, the loss depends on the seed, and the failure ratio is zero
// whenever the run is correct.
var endToEndUnits = map[string]string{
	"setup_s": "s", "train_samples_per_s": "1/s", "step_ms_p50": "ms",
	"compression_ratio": "ratio", "peak_heap_mb": "MB", "op_ms_p50": "ms", "max_ops_per_s": "1/s",
}

var perLayerUnits = map[string]string{
	"nn.forward_ms": "ms", "nn.backward_self_ms": "ms", "nn.optimizer_ms": "ms",
	"codec.encode_mb_s": "MB/s", "codec.decode_mb_s": "MB/s", "codec.frame_bytes_per_step": "bytes",
	"offload.issue_us": "us", "offload.end_forward_wait_ms": "ms", "offload.restore_wait_ms": "ms",
	"offload.end_step_ms": "ms", "offload.prefetch_hit_ratio": "ratio", "offload.max_inflight_mb": "MB",
	"transport.link_model_ms": "ms", "transport.link_block_ms": "ms",
	"transport.transfers_per_step": "count", "transport.bytes_per_step": "bytes",
	"transport.put_us_p50": "us", "transport.put_us_p99": "us",
	"transport.get_us_p50": "us", "transport.get_us_p99": "us",
	"transport.retried": "count", "transport.reconnects": "count",
	"netstore.ops": "ops/step", "netstore.peak_entries": "count", "netstore.peak_host_mb": "MB",
	"netstore.entries_after": "count",
	"train.dp_step_ms":       "ms", "train.grad_puts_per_step": "count", "train.grad_gets_per_step": "count",
	"train.grad_mb_per_step":    "MB",
	"runtime.alloc_mb_per_step": "MB", "runtime.gc_per_step": "count", "runtime.gc_pause_ms": "ms",
	"gen.late_ms_max":      "ms",
	"step.forward_self_ms": "ms", "step.end_forward_wait_ms": "ms", "step.backward_self_ms": "ms",
	"step.restore_wait_ms": "ms", "step.end_step_ms": "ms", "step.optimizer_ms": "ms",
	"step.unattributed_ms": "ms", "step.wall_ms": "ms",
	"trace.overhead_pct": "%",
}

var workloads = map[string]func(runConfig) *outcome{
	"offload-pcie": runOffloadPCIe,
	"dp-exchange":  runDPExchange,
	"store-mix":    runStoreMix,
}

func main() {
	name := flag.String("workload", "", "workload to run: offload-pcie, dp-exchange or store-mix")
	seed := flag.Uint64("seed", 1, "seed for the workload's generated inputs")
	seconds := flag.Float64("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	spansDir := flag.String("spans-dir", ".", "directory the traced run writes its spans to")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	out := run(cfg)

	metricsOut := map[string]metric{}
	ungated := map[string]metric{"failed_op_ratio": {ratio(float64(out.failed), float64(out.attempted)), "ratio"}}
	for name, m := range out.endToEnd {
		if _, ok := endToEndUnits[name]; ok {
			metricsOut[name] = m
		} else {
			ungated[name] = m
		}
	}
	for name := range endToEndUnits {
		if _, ok := metricsOut[name]; !ok {
			out.fail("end-to-end metric %s missing", name)
		}
	}
	if cfg.trace {
		metricsOut = out.perLayer
		// A layer the workload does not exercise did no work on it.
		for name, unit := range perLayerUnits {
			if _, ok := metricsOut[name]; !ok {
				metricsOut[name] = metric{0, unit}
			}
		}
		if out.rec != nil {
			path := filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
			if err := out.rec.write(path); err != nil {
				out.fail("write spans: %v", err)
			}
		}
	}
	for _, m := range []map[string]metric{metricsOut, ungated} {
		for name, v := range m {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				out.fail("metric %s is %v", name, v.Value)
				m[name] = metric{0, v.Unit}
			}
		}
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metricsOut,
	}
	report := map[string]any{
		"benchmark":  "perfbench",
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      cfg.trace,
		"meta":       benchmeta.Collect(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"problems":   out.problems,
		"details":    out.details,
		"ungated":    ungated,
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	printSummary(res.Metrics)
	printSummary(ungated)
	if line, err := json.Marshal(report); err != nil {
		// Details of a failed run may hold NaNs; the result still prints.
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
	} else {
		fmt.Println(string(line))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printSummary lists the metrics by name and unit on standard error.
func printSummary(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "%-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// timedSetup runs build n times and returns the last result with the
// median set-up time. The first build is timed from process start, so
// runtime start-up counts; the earlier results are released with drop.
func timedSetup[T any](n int, build func() T, drop func(T)) (T, float64) {
	var cur T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(cur)
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		cur = build()
		times = append(times, time.Since(t0).Seconds())
	}
	return cur, median(times)
}
