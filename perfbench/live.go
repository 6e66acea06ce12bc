package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"rog/internal/livenet"
	"rog/internal/nn"
	"rog/internal/rowsync"
	"rog/internal/tensor"
)

// The live-train architecture: ROG-4 over 2 workers and a 2-shard server,
// a ClassifierMLP 32→[128,128]→10 (291 row units), batch 16.
const (
	liveWorkers   = 2
	liveThreshold = 4
	liveShards    = 2
	liveBatch     = 16
	liveIn        = 32
	liveClasses   = 10
	liveBatches   = 128 // pre-generated batches per worker, cycled
	liveAccFloor  = 0.8 // final eval accuracy every worker must reach
	liveMTAFloor  = 0.002
	// liveLR keeps training stable on every seed. At 0.05 (momentum 0.9)
	// the loss on this easy task fell to about 1e-8 and then spiked
	// under stale rows; about one run in fifty ended below the accuracy
	// floor. At 0.02 no run's loss rose above its starting value.
	liveLR = 0.02
)

var liveHidden = []int{128, 128}

func newLiveModel(seed uint64) *nn.Sequential {
	return nn.NewClassifierMLP(liveIn, liveHidden, liveClasses, tensor.NewRNG(seed))
}

// classTask is a seeded synthetic classification task: Gaussian clusters
// around one centroid per class.
type classTask struct {
	centroids [][]float32
}

func newClassTask(seed uint64) *classTask {
	r := tensor.NewRNG(seed*7919 + 3)
	t := &classTask{}
	for c := 0; c < liveClasses; c++ {
		v := make([]float32, liveIn)
		for i := range v {
			v[i] = float32(r.Norm())
		}
		t.centroids = append(t.centroids, v)
	}
	return t
}

func (t *classTask) batch(r *tensor.RNG, n int) (*tensor.Matrix, []int) {
	x := tensor.New(n, liveIn)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(liveClasses)
		y[i] = c
		row := x.Row(i)
		for j := range row {
			row[j] = t.centroids[c][j] + float32(r.Norm())
		}
	}
	return x, y
}

// liveRig is one assembled live-train deployment: a livenet server on
// TCP loopback and its workers, each with pre-generated training batches.
type liveRig struct {
	srv      *livenet.Server
	part     *rowsync.Partition
	models   []*nn.Sequential
	workers  []*livenet.Worker
	conns    []net.Conn
	batchX   [][]*tensor.Matrix
	batchY   [][][]int
	evalX    *tensor.Matrix
	evalY    []int
	handlers sync.WaitGroup
	errMu    sync.Mutex
	srvErrs  []error

	ev    *eventTally
	cs    *connStats // every socket call, both ends
	csSrv *connStats // server-side calls only: one write per pull frame
}

// newLiveRig builds the deployment: data, models, server, listener and
// dials. A traced rig tallies events and counts socket calls.
func newLiveRig(seed uint64, traced bool) (*liveRig, error) {
	g := &liveRig{}
	if traced {
		g.ev, g.cs, g.csSrv = &eventTally{}, &connStats{}, &connStats{}
	}
	task := newClassTask(seed)
	for w := 0; w < liveWorkers; w++ {
		r := tensor.NewRNG(seed*131 + uint64(w)*17 + 5)
		var xs []*tensor.Matrix
		var ys [][]int
		for b := 0; b < liveBatches; b++ {
			x, y := task.batch(r, liveBatch)
			xs, ys = append(xs, x), append(ys, y)
		}
		g.batchX, g.batchY = append(g.batchX, xs), append(g.batchY, ys)
	}
	g.evalX, g.evalY = task.batch(tensor.NewRNG(seed*31+11), 1000)

	proto := newLiveModel(seed + 101)
	g.part = rowsync.NewPartition(proto.Params(), rowsync.Rows)
	cfg := livenet.ServerConfig{
		Workers: liveWorkers, Threshold: liveThreshold, Shards: liveShards, MTAFloorSeconds: liveMTAFloor,
	}
	if g.ev != nil {
		cfg.Trace = g.ev
	}
	srv, err := livenet.NewServer(g.part, cfg)
	if err != nil {
		return nil, err
	}
	g.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	for w := 0; w < liveWorkers; w++ {
		// Dial then accept, one worker at a time, so accepted connection
		// w is worker w's.
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			g.close()
			return nil, err
		}
		sconn, err := ln.Accept()
		if err != nil {
			conn.Close()
			g.close()
			return nil, err
		}
		conn = wrapConn(conn, g.cs)
		g.conns = append(g.conns, conn)
		m := newLiveModel(1)
		m.CopyParamsFrom(proto)
		g.models = append(g.models, m)
		wcfg := livenet.WorkerConfig{
			ID: w, Workers: liveWorkers, Threshold: liveThreshold, LR: liveLR, Momentum: 0.9,
		}
		if g.ev != nil {
			wcfg.Trace = g.ev
		}
		g.workers = append(g.workers, livenet.NewWorker(m, g.part, conn, wcfg))
		g.handlers.Add(1)
		go func(w int, c net.Conn) {
			defer g.handlers.Done()
			defer c.Close()
			if err := g.srv.HandleConn(w, c); err != nil {
				g.errMu.Lock()
				g.srvErrs = append(g.srvErrs, err)
				g.errMu.Unlock()
			}
		}(w, wrapConn(wrapConn(sconn, g.csSrv), g.cs))
	}
	return g, nil
}

// close ends every worker connection and waits for the server handlers.
func (g *liveRig) close() {
	for _, c := range g.conns {
		c.Close()
	}
	g.conns = nil
	if g.srv != nil {
		g.srv.Close()
	}
	g.handlers.Wait()
}

// liveRun is what one timed window of a rig measured.
type liveRun struct {
	start      time.Time // when the window opened
	window     float64   // seconds
	iterMs     []float64 // RunIteration latency of every iteration inside the window
	computeMs  []float64 // the compute closure's share of each of them
	endAt      []float64 // when each of them ended, seconds into the window
	attempted  int64
	errs       []error
	traced     liveTrace
	profShares map[string]float64
}

type liveTrace struct {
	conn      connCounts
	srvWrites int64
	allocs    float64
	bytes     float64
	gcFrac    float64
	merges    int64
	pushed    int64
	planned   int64
	stallSec  float64
}

// run trains for warm (untimed) plus window, then closes the rig. Every
// iteration that starts and ends inside the window is a sample.
func (g *liveRig) run(warm, window time.Duration, profile bool) (*liveRun, error) {
	start := time.Now()
	tStart, tEnd := start.Add(warm), start.Add(warm+window)
	out := &liveRun{start: tStart, window: seconds(window)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := range g.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker, model := g.workers[w], g.models[w]
			var iters, computes, ends []float64
			var attempted int64
			var err error
			for k := 0; ; k++ {
				t0 := time.Now()
				if !t0.Before(tEnd) {
					break
				}
				var compute time.Duration
				x, y := g.batchX[w][k%liveBatches], g.batchY[w][k%liveBatches]
				attempted++
				err = worker.RunIteration(func() {
					c0 := time.Now()
					_, grad := nn.SoftmaxCrossEntropy(model.Forward(x), y)
					model.Backward(grad)
					compute = time.Since(c0)
				})
				t1 := time.Now()
				if err != nil {
					break
				}
				if !t0.Before(tStart) && !t1.After(tEnd) {
					iters = append(iters, millis(t1.Sub(t0)))
					computes = append(computes, millis(compute))
					ends = append(ends, seconds(t1.Sub(tStart)))
				}
			}
			// Leaving ends this worker's session; the server detaches it,
			// which releases a teammate parked on the staleness gate.
			g.conns[w].Close()
			mu.Lock()
			out.iterMs = append(out.iterMs, iters...)
			out.computeMs = append(out.computeMs, computes...)
			out.endAt = append(out.endAt, ends...)
			out.attempted += attempted
			if err != nil {
				out.errs = append(out.errs, fmt.Errorf("worker %d: %w", w, err))
			}
			mu.Unlock()
		}(w)
	}

	var runErr error
	if g.ev != nil {
		time.Sleep(time.Until(tStart))
		var prof *cpuProfile
		if profile {
			prof, runErr = startCPUProfile()
		}
		c0, s0, m0 := g.cs.snapshot(), g.csSrv.snapshot(), readMem()
		g.ev.on.Store(true)
		time.Sleep(time.Until(tEnd))
		g.ev.on.Store(false)
		c1, s1, m1 := g.cs.snapshot(), g.csSrv.snapshot(), readMem()
		if prof != nil {
			out.profShares, runErr = prof.stop()
		}
		t := &out.traced
		t.conn, t.srvWrites = c1.minus(c0), s1.writes-s0.writes
		t.allocs, t.bytes = m1.since(m0)
		t.gcFrac = gcCPUFraction()
	}
	wg.Wait()
	g.close()
	g.errMu.Lock()
	out.errs = append(out.errs, g.srvErrs...)
	g.errMu.Unlock()
	if g.ev != nil {
		g.ev.mu.Lock()
		t := &out.traced
		t.merges, t.pushed, t.planned, t.stallSec = g.ev.merges, g.ev.pushUnits, g.ev.plannedUnits, g.ev.stallSeconds
		g.ev.mu.Unlock()
	}
	return out, runErr
}

// check applies the live output checks: no worker or server error, the
// RSP bound held, and every worker learned the task.
func (g *liveRig) check(t *tally, res *liveRun, name string) {
	t.attempt(res.attempted)
	if len(res.errs) > 0 {
		t.fail(int64(len(res.errs)), "%s: %v", name, errors.Join(res.errs...))
	}
	st := g.srv.MaxStalenessObserved()
	t.check(st <= liveThreshold, "%s: max staleness %d exceeds threshold %d", name, st, liveThreshold)
	for w, m := range g.models {
		acc := nn.Accuracy(m.Forward(g.evalX), g.evalY)
		t.check(acc >= liveAccFloor, "%s: worker %d accuracy %.3f below %.2f", name, w, acc, liveAccFloor)
	}
}

// liveSetup builds the rig setupRepeats times, keeps the last and reports
// the median build time as setup_s.
func liveSetup(r *run) (*liveRig, error) {
	var setups []float64
	var g *liveRig
	for i := 0; i < setupRepeats; i++ {
		if g != nil {
			g.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		g, err = newLiveRig(r.seed, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(t0)))
	}
	r.e2e("setup_s", median(setups))
	return g, nil
}

const (
	liveWarm        = time.Second
	liveProbeWindow = 10 * time.Second
)

// liveTrain measures the live-train workload.
func liveTrain(r *run) error {
	const name = "live-train"
	window := time.Duration(r.seconds * float64(time.Second))
	heap := startHeapSampler()
	g, err := liveSetup(r)
	if err != nil {
		return err
	}
	if r.trace {
		heap.stopMB()
		g.close()
		return liveTraced(r, name, window)
	}
	runtime.GC()
	res, err := g.run(liveWarm, window, false)
	if err != nil {
		return err
	}
	r.e2e("peak_heap_mb", heap.stopMB())
	g.check(&r.tally, res, name)
	liveReport(r, name, res)
	r.printf("-- probes: sim-cruda, serve-mixed --\n")
	if err := simProbe(r); err != nil {
		return err
	}
	return serveProbe(r)
}

func liveReport(r *run, name string, res *liveRun) {
	// One slice per second; the half that lost least CPU to steal count.
	k := max(2, int(math.Round(res.window)))
	keep, fracs := quietSlices(res.start, time.Duration(res.window*float64(time.Second)), k)
	kept := make([]bool, k)
	for _, i := range keep {
		kept[i] = true
	}
	counts := make([]float64, k)
	var order []int // samples in kept slices
	for i, t := range res.endAt {
		s := min(int(t/res.window*float64(k)), k-1)
		counts[s]++
		if kept[s] {
			order = append(order, i)
		}
	}
	var rates []float64
	for _, i := range keep {
		rates = append(rates, counts[i]/(res.window/float64(k)))
	}
	r.e2e("train_iters_per_s", median(rates))
	// Samples come per worker; put them in completion order for slicing.
	sort.Slice(order, func(a, b int) bool { return res.endAt[order[a]] < res.endAt[order[b]] })
	lat := make([]float64, len(order))
	for i, j := range order {
		lat[i] = res.iterMs[j]
	}
	r.e2e("iter_p50_ms", median(lat))
	p99, q, each := chunkTail(lat, 0.99)
	r.e2e("iter_p99_ms", p99)
	r.printf("%s: %d iterations in %.1fs window over %d workers; steal per 1s slice %s, kept slices %v (rates %.4g/s); iter_p99_ms is the lowest over chunks of p%.2f %.4g (%d samples kept)\n",
		name, len(res.iterMs), res.window, liveWorkers, pcts(fracs), keep, rates, 100*q, each, len(lat))
}

// liveProbe measures the live-train metrics briefly for workloads whose
// own loop is not live training.
func liveProbe(r *run) error {
	g, err := newLiveRig(probeSeed, false)
	if err != nil {
		return err
	}
	runtime.GC()
	res, err := g.run(liveWarm, liveProbeWindow, false)
	if err != nil {
		return err
	}
	g.check(&r.tally, res, "live probe")
	liveReport(r, "live probe", res)
	return nil
}

// liveTraced runs the window untraced and then traced (event tally, conn
// wrapper, CPU profile), and reports the layer splits.
func liveTraced(r *run, name string, window time.Duration) error {
	g, err := newLiveRig(r.seed, false)
	if err != nil {
		return err
	}
	base, err := g.run(liveWarm, window, false)
	if err != nil {
		return err
	}
	g.check(&r.tally, base, name)

	g, err = newLiveRig(r.seed, true)
	if err != nil {
		return err
	}
	res, err := g.run(liveWarm, window, true)
	if err != nil {
		return err
	}
	g.check(&r.tally, res, name+" traced")

	iters := float64(len(res.iterMs))
	t := res.traced
	computeMs, iterMs := mean(res.computeMs), mean(res.iterMs)
	r.layer("nn.fwd_bwd_us", 1000*computeMs)
	r.layer("livenet.compute_ms_per_iter", computeMs)
	r.layer("livenet.comm_ms_per_iter", iterMs-computeMs)
	r.layer("livenet.rows_pushed_per_iter", float64(t.pushed)/iters)
	// The server writes each pull frame in one call: the pulled rows
	// plus one pull-done per iteration.
	r.layer("livenet.rows_pulled_per_iter", float64(t.srvWrites)/iters-1)
	cut := 0.0
	if t.planned > 0 {
		cut = math.Max(0, 1-float64(t.pushed)/float64(t.planned))
	}
	r.layer("livenet.speculative_cut_frac", cut)
	r.layer("engine.gate_stall_ms_per_iter", 1000*t.stallSec/iters)
	r.layer("transport.writes_per_iter", float64(t.conn.writes)/iters)
	r.layer("transport.reads_per_iter", float64(t.conn.reads)/iters)
	r.layer("transport.bytes_per_iter", float64(t.conn.bytes)/iters)
	r.layer("transport.write_us_per_iter", float64(t.conn.writeNs)/1000/iters)
	r.layer("runtime.allocs_per_iter", t.allocs/iters)
	r.layer("runtime.alloc_bytes_per_iter", t.bytes/iters)
	r.layer("runtime.gc_cpu_fraction", t.gcFrac)
	baseRate := float64(len(base.iterMs)) / base.window
	r.layer("obs.trace_overhead_frac", 1-(iters/res.window)/baseRate)
	r.profileShares(res.profShares)
	r.printf("%s traced: %.1f iters/s untraced, %.1f traced; %d merges in window\n",
		name, baseRate, iters/res.window, t.merges)

	micro, err := runMicros(r)
	if err != nil {
		return err
	}
	r.layer("nn.fwd_bwd_allocs", micro["nn.fwd_bwd.live"].allocsOp)
	r.layer("nn.fwd_bwd_bytes", micro["nn.fwd_bwd.live"].bytesOp)
	r.layer("engine.merge_batch_p50_us", micro["engine.merge_batch"].p50us)
	r.layer("engine.merge_batch_p99_us", micro["engine.merge_batch"].p99us)
	r.zeroLayers("core.", "serve.batch", "serve.publishes", "serve.queue", "serve.read")
	return nil
}
