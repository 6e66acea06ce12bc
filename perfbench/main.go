// Command perfbench is the repository's wall-clock benchmark. One process
// runs one named workload, checks its outputs, and prints every metric by
// name with its unit; the last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload live-train --seed 1 --seconds 10 --trace 0
//
// run.sh builds this program from the repository root and passes it the
// commit and a scratch directory under .bench_build/.
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	sim-cruda    harness.RunEndToEnd for Fig. 1 at harness.Quick
//	live-train   livenet server + 2 workers over TCP loopback, ROG-4, 2 shards
//	serve-mixed  2 trainers merging every 10 ms while a serve.Server answers
//	             an open-loop generator over one TCP connection
//
// With --trace 0 the run reports the end-to-end metrics. Every workload
// reports all of them: the workload's own loop runs for --seconds, and the
// metrics that belong to another workload's loop come from a short probe
// of that loop, printed under "probes". With --trace 1 the run measures
// its loop untraced and then traced (obs event tally, net.Conn and
// durable.FS wrappers, CPU profile by package), runs the shape-matched
// layer microbenchmarks and the durable journal measurement, and reports
// the per-layer metrics; a layer the workload does not exercise reports 0.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

type metricDef struct{ name, unit string }

// probeSeed fixes the probes' inputs: a probe measures another workload's
// loop on the same inputs in every run, whatever the run's seed.
const probeSeed = 1

// endToEnd lists the end-to-end metrics (tracing off).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_iters_per_s", "1/s"},
	{"train_iters_per_s", "1/s"},
	{"iter_p50_ms", "ms"},
	{"iter_p99_ms", "ms"},
	{"serve_p50_ms_idle", "ms"},
	{"serve_p99_ms_idle", "ms"},
	{"serve_p50_ms_busy", "ms"},
	{"serve_p99_ms_busy", "ms"},
	{"serve_max_rps", "1/s"},
	{"peak_heap_mb", "MiB"},
}

// ungated lists end-to-end metrics every run measures and prints but
// leaves out of the result line, so no bound applies to them.
// train_merge_p99_us is the p99 of at most 1 800 trainer merges, whose
// latency has a long tail from collections and stolen CPU: across ten
// runs on a shared 2-core host it spread by 0.3–0.55 of its median, more
// than any regression bound. Its traced counterpart on serve-mixed is
// engine.merge_batch_p99_us.
var ungated = []metricDef{
	{"train_merge_p99_us", "us"},
}

// perLayer lists the per-layer metrics of the traced run. "iter" is the
// workload's unit of work: a simulated worker iteration (sim-cruda), a
// worker iteration (live-train), or a served request (serve-mixed); for
// the durable.* metrics it is one merged push.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"tensor.cpu_share", "frac"},
		{"tensor.mul_ns", "ns"},
		{"tensor.mul_transa_ns", "ns"},
		{"tensor.mul_transb_ns", "ns"},
		{"nn.cpu_share", "frac"},
		{"nn.fwd_bwd_us", "us"},
		{"nn.fwd_bwd_allocs", "count"},
		{"nn.fwd_bwd_bytes", "B"},
		{"nn.forward_batch_us.b1", "us"},
		{"nn.forward_batch_us.b16", "us"},
		{"compress.encode_ns_per_row", "ns"},
		{"compress.decode_ns_per_row", "ns"},
		{"compress.encode_allocs", "count"},
		{"compress.cpu_share", "frac"},
		{"atp.plan_us", "us"},
		{"rowsync.meanabs_ns_per_unit", "ns"},
		{"engine.merge_batch_p50_us", "us"},
		{"engine.merge_batch_p99_us", "us"},
		{"engine.gate_stall_ms_per_iter", "ms"},
		{"engine.cpu_share", "frac"},
		{"durable.wal_writes_per_iter", "count"},
		{"durable.syncs_per_iter", "count"},
		{"durable.write_bytes_per_iter", "B"},
		{"durable.sync_p50_us", "us"},
		{"durable.sync_p99_us", "us"},
		{"transport.writes_per_iter", "count"},
		{"transport.reads_per_iter", "count"},
		{"transport.bytes_per_iter", "B"},
		{"transport.write_us_per_iter", "us"},
		{"transport.syscall_share", "frac"},
		{"livenet.compute_ms_per_iter", "ms"},
		{"livenet.comm_ms_per_iter", "ms"},
		{"livenet.rows_pushed_per_iter", "count"},
		{"livenet.rows_pulled_per_iter", "count"},
		{"livenet.speculative_cut_frac", "frac"},
		{"serve.batch_size_mean", "count"},
		{"serve.batches_per_s", "1/s"},
		{"serve.publishes_per_s", "1/s"},
		{"serve.queue_wait_p50_ms", "ms"},
		{"serve.read_stalls", "count"},
		{"core.sim_iters", "count"},
		{"core.rows_merged", "count"},
		{"core.bytes_encoded", "B"},
		{"runtime.allocs_per_iter", "count"},
		{"runtime.alloc_bytes_per_iter", "B"},
		{"runtime.gc_cpu_fraction", "frac"},
		{"runtime.gc_malloc_share", "frac"},
		{"obs.trace_overhead_frac", "frac"},
	}
	for _, name := range microNames() {
		defs = append(defs,
			metricDef{"micro." + name + ".ns_op", "ns"},
			metricDef{"micro." + name + ".b_op", "B"},
			metricDef{"micro." + name + ".allocs_op", "count"})
	}
	return defs
}()

var workloads = map[string]func(*run) error{
	"sim-cruda":   simCruda,
	"live-train":  liveTrain,
	"serve-mixed": serveMixed,
}

// setupRepeats is how many times a socket workload is built to report
// the median as setup_s. A build takes a few milliseconds, so one
// collection or burst of stolen CPU moves a single build by half; each
// build starts after a collection, and the median of many drops the
// disturbed ones.
const setupRepeats = 21

// run is one benchmark invocation's state and report.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scratch  string
	out      *bufio.Writer

	tally   tally
	metrics map[string]float64
}

func (r *run) printf(format string, args ...any) { fmt.Fprintf(r.out, format, args...) }

// e2e records an end-to-end metric; in traced runs they are not reported.
func (r *run) e2e(name string, v float64) {
	if !r.trace {
		r.metrics[name] = v
	}
}

func (r *run) layer(name string, v float64) {
	if r.trace {
		r.metrics[name] = v
	}
}

// zeroLayers reports 0 for every per-layer metric with one of the given
// prefixes that the workload did not set: layers it does not exercise.
func (r *run) zeroLayers(prefixes ...string) {
	for _, d := range perLayer {
		if _, ok := r.metrics[d.name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.layer(d.name, 0)
			}
		}
	}
}

// profileShares reports the CPU-profile buckets the per-layer list names
// and prints the whole split.
func (r *run) profileShares(s map[string]float64) {
	r.printf("cpu profile self time:%s\n", sortedShares(s))
	for _, mod := range []string{"tensor", "nn", "compress", "engine"} {
		r.layer(mod+".cpu_share", s[mod])
	}
	r.layer("transport.syscall_share", s["syscall"])
	r.layer("runtime.gc_malloc_share", s["runtime.gc_malloc"])
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	testing.Init() // registers test.benchtime for the microbenchmarks
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: sim-cruda, live-train or serve-mixed")
	seed := fs.Uint64("seed", 1, "input seed")
	secs := fs.Float64("seconds", 10, "seconds the workload's own loop is measured for")
	traceN := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	commit := fs.String("commit", "unknown", "source commit, recorded with the result")
	scratch := fs.String("scratch", "", "directory for durable-store scratch files (required)")
	recordSim := fs.String("record-sim", "", "comma-separated CRUDA seeds: print their sim-cruda expected outputs as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *recordSim != "" {
		return recordSimExpect(*recordSim)
	}
	fn, ok := workloads[*workload]
	if !ok || *secs <= 0 || (*traceN != 0 && *traceN != 1) || *scratch == "" || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of sim-cruda, live-train, serve-mixed), --seconds > 0, --trace 0|1 and --scratch\n")
		return 2
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *secs, trace: *traceN == 1, scratch: *scratch,
		out: bufio.NewWriter(os.Stdout), metrics: map[string]float64{},
	}
	defer r.out.Flush()
	r.printf("perfbench %s seed=%d seconds=%g trace=%d\n", r.workload, r.seed, r.seconds, *traceN)
	r.printf("provenance: nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), *commit)

	start := time.Now()
	steals = startStealLog()
	defer steals.close()
	if err := fn(r); err != nil {
		r.out.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}

	r.printf("cpu steal during the run: %.1f%% of machine CPU time\n", 100*steals.frac(start, time.Now()))
	defs, extra := endToEnd, ungated
	if r.trace {
		defs, extra = perLayer, nil
	}
	res := resultOut{Metrics: map[string]metricOut{}}
	var missing []string
	for _, d := range append(defs, extra...) {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		r.printf("  %-40s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: r.metrics[d.name], Unit: d.unit}
	}
	if len(extra) > 0 {
		r.printf("  (%s: measured and printed, not in the result line)\n", extra[0].name)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		r.out.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: %s measured no finite value for %s\n", r.workload, strings.Join(missing, ", "))
		return 1
	}
	res.Attempted, res.Failed = r.tally.attempted, r.tally.failed
	res.Correct = r.tally.failed == 0 && r.tally.attempted > 0
	for _, n := range r.tally.notes {
		r.printf("FAILED: %s\n", n)
	}
	r.printf("checks: %d operations and checks attempted, %d failed\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	r.printf("%s\n", line)
	return 0
}
