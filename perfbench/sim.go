package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"rog/internal/core"
	"rog/internal/harness"
	"rog/internal/obs"
	"rog/internal/trace"
)

// simExpectJSON holds the recorded sim-cruda outputs, keyed by seed.
// Regenerate with: perfbench --record-sim 1,2,...  (see README.md).
//
//go:embed expected/sim-cruda.json
var simExpectJSON []byte

type simSystem struct {
	Label      string  `json:"label"`
	Iterations int     `json:"iterations"`
	FinalValue float64 `json:"final_value"`
	StallFrac  float64 `json:"stall_frac"`
}

type simExpect struct {
	Systems      []simSystem `json:"systems"`
	SimIters     int64       `json:"sim_iters"`
	RowsMerged   int64       `json:"rows_merged"`
	BytesEncoded float64     `json:"bytes_encoded"`
}

type simExpectFile struct {
	DefaultSeed uint64               `json:"default_seed"`
	HeldOutSeed uint64               `json:"held_out_seed"`
	Seeds       map[string]simExpect `json:"seeds"`
}

func loadSimExpect() (*simExpectFile, error) {
	var f simExpectFile
	if err := json.Unmarshal(simExpectJSON, &f); err != nil {
		return nil, fmt.Errorf("expected/sim-cruda.json: %w", err)
	}
	return &f, nil
}

// simSeed maps the benchmark seed onto the CRUDA seed sim-cruda runs:
// the held-out seed runs itself, every other seed runs the default seed.
// Fig. 1's simulated iteration count varies twofold across CRUDA seeds,
// so a seed sweep would measure the inputs, not the code; the held-out
// seed is there to check a claimed gain on inputs it was not tuned on.
func (f *simExpectFile) simSeed(seed uint64) uint64 {
	if seed == f.HeldOutSeed {
		return seed
	}
	return f.DefaultSeed
}

// fig1Options is the sim-cruda workload: Fig. 1 (CRUDA outdoors, the six
// paper systems) at the given scale.
func fig1Options(seed uint64, s harness.Scale) harness.EndToEndOptions {
	return harness.EndToEndOptions{Paradigm: "cruda", Env: trace.Outdoor, Seed: seed, Scale: s}
}

func simOutputs(results []*core.Result) []simSystem {
	out := make([]simSystem, len(results))
	for i, r := range results {
		out[i] = simSystem{Label: r.Label(), Iterations: r.Iterations, FinalValue: r.FinalValue, StallFrac: r.StallFrac}
	}
	return out
}

// checkSim compares one run's outputs with the recorded ones exactly.
func checkSim(t *tally, want simExpect, got []simSystem) {
	t.check(len(got) == len(want.Systems), "sim-cruda: %d systems, recorded %d", len(got), len(want.Systems))
	for i := 0; i < len(got) && i < len(want.Systems); i++ {
		w, g := want.Systems[i], got[i]
		t.check(g == w, "sim-cruda: system %d = %+v, recorded %+v", i, g, w)
	}
}

// simCruda measures the researchers' loop: harness.RunEndToEnd for Fig. 1
// at harness.Quick, repeated while it fits in the run's seconds.
func simCruda(r *run) error {
	expect, err := loadSimExpect()
	if err != nil {
		return err
	}
	seed := expect.simSeed(r.seed)
	want := expect.Seeds[strconv.FormatUint(seed, 10)]
	r.printf("sim-cruda: CRUDA seed %d (recorded outputs: %d systems, %d simulated worker iterations)\n",
		seed, len(want.Systems), want.SimIters)

	heap := startHeapSampler()
	var setups []float64
	for i := 0; i < simSetupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		opts := harness.DefaultCRUDAOptions()
		opts.Seed = seed
		opts.PretrainIters = harness.Quick.PretrainIters
		harness.NewCRUDA(opts)
		setups = append(setups, seconds(time.Since(t0)))
	}
	r.e2e("setup_s", median(setups))

	if r.trace {
		heap.stopMB()
		return simTraced(r, seed, want)
	}

	runtime.GC()
	var wall float64
	var runs int
	for runs == 0 || wall+wall/float64(runs) <= r.seconds {
		t0 := time.Now()
		results, err := harness.RunEndToEnd(fig1Options(seed, harness.Quick))
		d := seconds(time.Since(t0))
		r.tally.attempt(1)
		if err != nil {
			r.tally.fail(1, "sim-cruda: %v", err)
			break
		}
		checkSim(&r.tally, want, simOutputs(results))
		wall += d
		runs++
	}
	r.e2e("peak_heap_mb", heap.stopMB())
	if runs > 0 {
		r.e2e("sim_iters_per_s", float64(want.SimIters)*float64(runs)/wall)
		r.printf("sim-cruda: %d run(s) of Fig. 1 in %.3fs wall\n", runs, wall)
	}
	r.printf("-- probes: live-train, serve-mixed --\n")
	if err := liveProbe(r); err != nil {
		return err
	}
	return serveProbe(r)
}

// simTraced runs Fig. 1 once untraced and once traced (event tally on
// every system plus a CPU profile), checks both, and reports the layer
// splits and the shape-matched microbenchmarks.
func simTraced(r *run, seed uint64, want simExpect) error {
	t0 := time.Now()
	results, err := harness.RunEndToEnd(fig1Options(seed, harness.Quick))
	base := seconds(time.Since(t0))
	r.tally.attempt(1)
	if err != nil {
		return fmt.Errorf("sim-cruda: %w", err)
	}
	checkSim(&r.tally, want, simOutputs(results))

	ev := &eventTally{}
	ev.on.Store(true)
	opts := fig1Options(seed, harness.Quick)
	opts.MakeTrace = func(string) obs.Tracer { return ev }
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	m0 := readMem()
	t0 = time.Now()
	results, err = harness.RunEndToEnd(opts)
	traced := seconds(time.Since(t0))
	m1 := readMem()
	shares, perr := prof.stop()
	r.tally.attempt(1)
	if err != nil {
		return fmt.Errorf("sim-cruda traced: %w", err)
	}
	if perr != nil {
		return perr
	}
	checkSim(&r.tally, want, simOutputs(results))
	r.tally.check(ev.iterEnds == want.SimIters && ev.merges == want.RowsMerged && ev.sentBytes == want.BytesEncoded,
		"sim-cruda: traced counts iters=%d merges=%d bytes=%v, recorded %d %d %v",
		ev.iterEnds, ev.merges, ev.sentBytes, want.SimIters, want.RowsMerged, want.BytesEncoded)

	iters := float64(ev.iterEnds)
	allocs, bytes := m1.since(m0)
	r.layer("core.sim_iters", iters)
	r.layer("core.rows_merged", float64(ev.merges))
	r.layer("core.bytes_encoded", ev.sentBytes)
	r.layer("engine.gate_stall_ms_per_iter", 1000*ev.stallSeconds/iters)
	r.layer("runtime.allocs_per_iter", allocs/iters)
	r.layer("runtime.alloc_bytes_per_iter", bytes/iters)
	r.layer("runtime.gc_cpu_fraction", gcCPUFraction())
	r.layer("obs.trace_overhead_frac", 1-base/traced)
	r.profileShares(shares)
	r.printf("sim-cruda traced: untraced %.3fs, traced %.3fs; %d worker iterations\n", base, traced, ev.iterEnds)

	micro, err := runMicros(r)
	if err != nil {
		return err
	}
	r.layer("nn.fwd_bwd_us", micro["nn.fwd_bwd.cruda"].nsOp/1000)
	r.layer("nn.fwd_bwd_allocs", micro["nn.fwd_bwd.cruda"].allocsOp)
	r.layer("nn.fwd_bwd_bytes", micro["nn.fwd_bwd.cruda"].bytesOp)
	r.layer("engine.merge_batch_p50_us", micro["engine.merge_batch"].p50us)
	r.layer("engine.merge_batch_p99_us", micro["engine.merge_batch"].p99us)
	r.zeroLayers("transport.writes", "transport.reads", "transport.bytes", "transport.write_us",
		"livenet.", "serve.batch", "serve.publishes", "serve.queue", "serve.read")
	return nil
}

// simSetupRepeats is how many times sim-cruda pretrains CRUDA to report
// the median as setup_s.
const simSetupRepeats = 3

// probeScale is a reduced Fig. 1 for the sim probe on other workloads.
var probeScale = harness.Scale{
	Name: "probe", VirtualSeconds: 40, CheckpointEvery: 8, PretrainIters: 20,
	ObsPerBot: 80, TestObs: 6, MicroSeconds: 240,
}

// simProbeRuns is how many reduced Fig. 1 runs the sim probe makes; it
// reports the fastest. A run takes about a second. Anything else on the
// machine only slows a run down, and runs that lost no CPU to steal still
// differed by up to 15%; a slower build of the code slows every run.
const simProbeRuns = 3

// simProbe measures sim_iters_per_s on a reduced Fig. 1 for workloads
// whose own loop is not the simulator.
func simProbe(r *run) error {
	expect, err := loadSimExpect()
	if err != nil {
		return err
	}
	runtime.GC()
	var rates, fracs []float64
	for i := 0; i < simProbeRuns; i++ {
		ev := &eventTally{}
		ev.on.Store(true)
		opts := fig1Options(expect.DefaultSeed, probeScale)
		opts.MakeTrace = func(string) obs.Tracer { return ev }
		t0 := time.Now()
		results, err := harness.RunEndToEnd(opts)
		d := seconds(time.Since(t0))
		fracs = append(fracs, steals.frac(t0, time.Now()))
		r.tally.attempt(1)
		if err != nil {
			return fmt.Errorf("sim probe: %w", err)
		}
		for _, res := range results {
			r.tally.check(res.Iterations > 0 && !math.IsNaN(res.FinalValue),
				"sim probe: %s ran %d iterations to quality %v", res.Label(), res.Iterations, res.FinalValue)
		}
		rates = append(rates, float64(ev.iterEnds)/d)
	}
	r.e2e("sim_iters_per_s", slices.Max(rates))
	r.printf("sim probe: %d reduced Fig. 1 runs, simulated worker iterations per second %.4g (the fastest counts), steal %s\n",
		simProbeRuns, rates, pcts(fracs))
	return nil
}

// recordSimExpect runs Fig. 1 traced for each listed seed and prints the
// expected-outputs file: the first seed is the default, the last the
// held-out seed (used only when asked for by --seed).
func recordSimExpect(list string) int {
	f := simExpectFile{Seeds: map[string]simExpect{}}
	parts := strings.Split(list, ",")
	for i, p := range parts {
		seed, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil || seed == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: bad seed %q\n", p)
			return 2
		}
		if i == 0 {
			f.DefaultSeed = seed
		}
		if i == len(parts)-1 {
			f.HeldOutSeed = seed
		}
		ev := &eventTally{}
		ev.on.Store(true)
		opts := fig1Options(seed, harness.Quick)
		opts.MakeTrace = func(string) obs.Tracer { return ev }
		results, err := harness.RunEndToEnd(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: seed %d: %v\n", seed, err)
			return 1
		}
		f.Seeds[strconv.FormatUint(seed, 10)] = simExpect{
			Systems: simOutputs(results), SimIters: ev.iterEnds, RowsMerged: ev.merges, BytesEncoded: ev.sentBytes,
		}
		fmt.Fprintf(os.Stderr, "recorded seed %d\n", seed)
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", out)
	return 0
}
