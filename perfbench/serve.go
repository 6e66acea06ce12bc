package main

import (
	"bytes"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rog/internal/atp"
	"rog/internal/engine"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/serve"
	"rog/internal/tensor"
	"rog/internal/transport"
)

// The serve-mixed deployment, as rogserve -listen builds it: two
// in-process trainers merge into a 2-shard state every 10 ms while a
// serve.Server (20 ms window, MaxBatch 16) answers the live-train
// architecture over one TCP connection.
const (
	serveTrainers   = 2
	serveThreshold  = 4
	serveShards     = 2
	servePeriod     = 10 * time.Millisecond
	serveWindow     = 0.02
	serveMaxBatch   = 16
	serveIdleRPS    = 200
	serveBusyRPS    = 8000
	serveLimitMs    = 50                 // p99 limit for serve_max_rps
	serveLadderBase = 1.5 * serveBusyRPS // the busy phase already runs 8 000
	// The ladder climbs by serveLadderGrowth, then bisects
	// serveLadderBisections times: 1.5^(1/32), a 1.3% resolution. A
	// step lasts serveLadderStep. A rate c·(1+x) above capacity c
	// reaches the 50 ms limit after 50ms/x, so a longer step passes
	// fewer rates past capacity and averages capacity over more time.
	serveLadderGrowth     = 1.5
	serveLadderBisections = 5
	serveLadderStep       = 500 * time.Millisecond
	serveQuietSteal       = 0.01
	serveInputs           = 1024
	serveRowSets          = 4
)

type wallClock struct{ start time.Time }

func (c wallClock) Now() float64 { return time.Since(c.start).Seconds() }

func (c wallClock) After(d float64, fn func()) {
	time.AfterFunc(time.Duration(d*float64(time.Second)), fn)
}

// serveRig is one assembled serve-mixed deployment with its open-loop
// load generator.
type serveRig struct {
	st     *engine.State
	pub    *serve.Publisher
	srv    *serve.Server
	conn   net.Conn // generator side
	served chan error

	units  []int
	rows   [serveTrainers][serveRowSets][][]float32
	inputs [][]float32

	stopTrain chan struct{}
	trainWG   sync.WaitGroup
	record    atomic.Bool
	mergeMu   sync.Mutex
	mergeUs   []float64 // MergeBatch latency while record is set

	mu       sync.Mutex
	ph       *phase // guarded by mu; the phase replies are matched against
	lastID   int64  // guarded by mu; highest request id sent
	maxVer   atomic.Int64
	readDone chan struct{}
	unknown  atomic.Int64 // replies to ids never sent

	ev *eventTally
	cs *connStats
}

// newServeRig builds the deployment and runs the first training round,
// so the first published snapshot is a trained one.
func newServeRig(seed uint64, traced bool) (*serveRig, error) {
	g := &serveRig{served: make(chan error, 1), stopTrain: make(chan struct{}), readDone: make(chan struct{})}
	if traced {
		g.ev, g.cs = &eventTally{}, &connStats{}
	}
	proto := newLiveModel(seed + 101)
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	pol, err := engine.New("rog", engine.Params{
		Workers: serveTrainers, Threshold: serveThreshold, NumUnits: part.NumUnits(), Coeff: atp.DefaultCoefficients(),
	})
	if err != nil {
		return nil, err
	}
	g.st = engine.NewStateSharded(pol, part, serveTrainers, 1.0, serveShards)
	clock := wallClock{start: time.Now()}
	var probe *obs.Probe
	if g.ev != nil {
		probe = obs.NewProbe(g.ev, nil, clock.Now)
	}
	g.pub = serve.NewPublisher(g.st, part, proto.Params(), 0.05)
	g.pub.Probe = probe
	scratch := newLiveModel(1)
	scratch.CopyParamsFrom(proto)
	g.srv = serve.NewServer(g.pub, scratch, liveIn, serve.Config{
		WindowSeconds: serveWindow, MaxBatch: serveMaxBatch, Clock: clock, Probe: probe,
	})

	r := tensor.NewRNG(seed*100003 + 7)
	for u := 0; u < part.NumUnits(); u++ {
		g.units = append(g.units, u)
	}
	for w := range g.rows {
		for k := range g.rows[w] {
			vals := make([][]float32, len(g.units))
			for u := range vals {
				row := make([]float32, part.Unit(u).Len)
				for i := range row {
					row[i] = float32(r.Norm() * 0.01)
				}
				vals[u] = row
			}
			g.rows[w][k] = vals
		}
	}
	task := newClassTask(seed)
	x, _ := task.batch(tensor.NewRNG(seed*29+1), serveInputs)
	for i := 0; i < serveInputs; i++ {
		g.inputs = append(g.inputs, x.Row(i))
	}
	for w := 0; w < serveTrainers; w++ {
		g.st.MergeBatch(w, g.units, g.rows[w][0], 1)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	sconn, err := ln.Accept()
	if err != nil {
		conn.Close()
		return nil, err
	}
	g.conn = wrapConn(conn, g.cs)
	sc := wrapConn(sconn, g.cs)
	go func() {
		err := g.srv.ServeConn(sc)
		sc.Close()
		g.served <- err
	}()
	go g.read()
	for w := 0; w < serveTrainers; w++ {
		g.trainWG.Add(1)
		go g.train(w)
	}
	return g, nil
}

// train merges one pre-generated push per period, from iteration 2 on.
// Like rogserve -listen, trainer w starts w·5% of a period late, so the
// merges interleave instead of arriving in lockstep.
func (g *serveRig) train(w int) {
	defer g.trainWG.Done()
	select {
	case <-g.stopTrain:
		return
	case <-time.After(time.Duration(w) * servePeriod / 20):
	}
	t := time.NewTicker(servePeriod)
	defer t.Stop()
	for iter := int64(2); ; iter++ {
		select {
		case <-g.stopTrain:
			return
		case <-t.C:
		}
		t0 := time.Now()
		g.st.MergeBatch(w, g.units, g.rows[w][iter%serveRowSets], iter)
		d := micros(time.Since(t0))
		if g.record.Load() {
			g.mergeMu.Lock()
			g.mergeUs = append(g.mergeUs, d)
			g.mergeMu.Unlock()
		}
	}
}

// close stops the trainers, ends the connection and waits for the
// server's connection loop and the reply reader.
func (g *serveRig) close() error {
	close(g.stopTrain)
	g.trainWG.Wait()
	g.conn.Close()
	err := <-g.served
	<-g.readDone
	g.srv.Close()
	return err
}

// phase is one fixed-rate open-loop step. Request i (0-based) is due at
// start + i/rate and carries id base+i.
type phase struct {
	base   int64
	n      int
	start  time.Time
	period time.Duration

	minVer   []int64
	recvAt   []time.Duration // since start; valid where got is set
	got      []bool
	received int
	bad      int
	all      chan struct{} // closed when every request has a reply
}

type phaseResult struct {
	rate        float64
	start       time.Time
	dur         time.Duration
	steal       float64 // share of machine CPU time stolen during the phase
	sent        int
	latMs       []float64 // from due time; +Inf for a missing reply
	missing     int
	bad         int
	lateMaxMs   float64 // how late the generator sent, worst request
	lateMeanMs  float64
	backlogPeak int // requests sent but unanswered, peak over send times
}

func (p phaseResult) ok() bool {
	p99, _ := tail(p.latMs, 0.99)
	return p.missing == 0 && p.bad == 0 && p99 <= serveLimitMs && p.lateMaxMs <= serveLimitMs
}

// quietLatencies returns the latencies of the requests due in the half
// of the phase's 1 s slices that lost least CPU to steal, in due order.
func (p phaseResult) quietLatencies() (lat []float64, keep []int, fracs []float64) {
	k := max(2, int(math.Round(p.dur.Seconds())))
	keep, fracs = quietSlices(p.start, p.dur, k)
	for _, s := range keep {
		lat = append(lat, p.latMs[s*len(p.latMs)/k:(s+1)*len(p.latMs)/k]...)
	}
	return lat, keep, fracs
}

// read matches every reply to its request: exactly once, version at least
// the requested minimum, output finite and of the model's width.
func (g *serveRig) read() {
	defer close(g.readDone)
	rc := transport.NewReceiver(g.conn)
	for {
		payload, err := rc.Recv()
		if err != nil {
			return
		}
		now := time.Now()
		rep, err := serve.DecodeReply(payload)
		g.mu.Lock()
		p := g.ph
		id := int64(rep.ID)
		if err != nil || id < 1 || id > g.lastID {
			g.mu.Unlock()
			g.unknown.Add(1)
			continue
		}
		if p == nil || id < p.base {
			// Its phase already counted it missing; nothing to match.
			g.mu.Unlock()
			continue
		}
		i := int(int64(rep.ID) - p.base)
		good := !p.got[i] && rep.Version >= p.minVer[i] && len(rep.Output) == liveClasses
		for _, v := range rep.Output {
			good = good && !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0)
		}
		if !good {
			p.bad++
		}
		if !p.got[i] {
			p.got[i] = true
			p.recvAt[i] = now.Sub(p.start)
			p.received++
			if p.received == p.n {
				close(p.all)
			}
		}
		g.mu.Unlock()
		for v := g.maxVer.Load(); rep.Version > v && !g.maxVer.CompareAndSwap(v, rep.Version); v = g.maxVer.Load() {
		}
	}
}

// run sends n = rate·dur requests on schedule, coalescing every request
// already due into one write, then waits up to 2 s past the phase for
// the replies.
func (g *serveRig) run(rate float64, dur time.Duration, nextID *int64) phaseResult {
	n := int(rate * dur.Seconds())
	p := &phase{
		base: *nextID, n: n, period: time.Duration(float64(time.Second) / rate),
		minVer: make([]int64, n), recvAt: make([]time.Duration, n), got: make([]bool, n),
		all: make(chan struct{}),
	}
	*nextID += int64(n)
	res := phaseResult{rate: rate, dur: dur, sent: n}
	p.start = time.Now()
	g.mu.Lock()
	g.ph = p
	g.lastID = p.base + int64(n) - 1
	g.mu.Unlock()

	var buf bytes.Buffer
	var lateSum time.Duration
	var lateMax time.Duration
	writeErr := false
	for i := 0; i < n; {
		now := time.Since(p.start)
		buf.Reset()
		j := i
		g.mu.Lock()
		for ; j < n && time.Duration(j)*p.period <= now; j++ {
			p.minVer[j] = g.maxVer.Load()
			req := serve.EncodeRequest(serve.RequestFrame{
				ID: uint64(p.base + int64(j)), MinVersion: p.minVer[j], Input: g.inputs[j%serveInputs],
			})
			_ = transport.WriteFrame(&buf, req) // a bytes.Buffer write cannot fail
		}
		g.mu.Unlock()
		if j > i {
			if _, err := g.conn.Write(buf.Bytes()); err != nil {
				writeErr = true
				break
			}
			sentAt := time.Since(p.start)
			for k := i; k < j; k++ {
				late := sentAt - time.Duration(k)*p.period
				lateSum += late
				lateMax = max(lateMax, late)
			}
			g.mu.Lock()
			res.backlogPeak = max(res.backlogPeak, j-p.received)
			g.mu.Unlock()
			i = j
		}
		if i < n {
			time.Sleep(time.Duration(i)*p.period - time.Since(p.start))
		}
	}
	if !writeErr && n > 0 {
		select {
		case <-p.all:
		case <-time.After(time.Until(p.start.Add(dur + 2*time.Second))):
		}
	}
	g.mu.Lock()
	g.ph = nil
	for i := 0; i < n; i++ {
		if p.got[i] {
			res.latMs = append(res.latMs, millis(p.recvAt[i]-time.Duration(i)*p.period))
		} else {
			res.latMs = append(res.latMs, math.Inf(1))
			res.missing++
		}
	}
	res.bad = p.bad
	g.mu.Unlock()
	if n > 0 {
		res.lateMeanMs = millis(lateSum) / float64(n)
	}
	res.lateMaxMs = millis(lateMax)
	res.start = p.start
	res.steal = steals.frac(p.start, time.Now())
	return res
}

// ladder raises the rate geometrically until a step misses the limit,
// then bisects (geometrically) between the last passing and the first
// failing rate. A step that misses is run again before it counts as
// failed, so one burst of stolen CPU does not end the climb: it fails on
// a second miss that lost at most serveQuietSteal to steal, or on the
// third miss. It returns the highest passing rate and every step.
func (g *serveRig) ladder(nextID *int64) (float64, []phaseResult) {
	var steps []phaseResult
	try := func(rate float64) bool {
		for attempt := 1; ; attempt++ {
			res := g.run(rate, serveLadderStep, nextID)
			steps = append(steps, res)
			if res.ok() {
				return true
			}
			if attempt == 3 || (attempt == 2 && res.steal <= serveQuietSteal) {
				return false
			}
		}
	}
	pass, fail := 0.0, 0.0
	for rate := float64(serveLadderBase); rate < 1e6; rate *= serveLadderGrowth {
		if !try(rate) {
			fail = rate
			break
		}
		pass = rate
	}
	if fail == 0 {
		return pass, steps
	}
	lo, hi := pass, fail
	if lo == 0 {
		lo = hi / serveLadderGrowth
	}
	for k := 0; k < serveLadderBisections; k++ {
		mid := math.Sqrt(lo * hi)
		if try(mid) {
			lo, pass = mid, mid
		} else {
			hi = mid
		}
	}
	return pass, steps
}

// serveMeasure is what one serve-mixed measurement reports.
type serveMeasure struct {
	idle, busy phaseResult
	maxRPS     float64
	steps      []phaseResult
	mergeUs    []float64
	heapMB     float64
	wall       float64
}

// measure runs the idle and busy phases and the ladder. A non-nil heap
// sampler is stopped after the busy phase.
func (g *serveRig) measure(idle, busy time.Duration, heap *heapSampler) serveMeasure {
	var m serveMeasure
	nextID := int64(1)
	g.record.Store(true)
	t0 := time.Now()
	m.idle = g.run(serveIdleRPS, idle, &nextID)
	m.busy = g.run(serveBusyRPS, busy, &nextID)
	// Merge latency is a write-side cost of the read load, and the heap
	// a cost of serving it; past saturation they would only measure CPU
	// starvation and the backlog the ladder builds on purpose.
	g.record.Store(false)
	if heap != nil {
		m.heapMB = heap.stopMB()
	}
	m.maxRPS, m.steps = g.ladder(&nextID)
	m.wall = seconds(time.Since(t0))
	g.mergeMu.Lock()
	m.mergeUs = append([]float64(nil), g.mergeUs...)
	g.mergeMu.Unlock()
	return m
}

// checkServe counts every request as an operation and every missing,
// duplicated or invalid reply as a failure. The ladder's failing steps
// are probes past saturation: their requests are counted and checked
// for validity, but their late or missing replies are the measurement.
func checkServe(t *tally, m serveMeasure, name string, closeErr error) {
	for _, p := range []phaseResult{m.idle, m.busy} {
		t.attempt(int64(p.sent))
		t.fail(int64(p.missing+p.bad), "%s: %.0f rps: %d missing, %d invalid replies", name, p.rate, p.missing, p.bad)
	}
	for _, p := range m.steps {
		t.attempt(int64(p.sent))
		t.fail(int64(p.bad), "%s: ladder %.0f rps: %d invalid replies", name, p.rate, p.bad)
	}
	t.check(closeErr == nil, "%s: server connection ended with %v", name, closeErr)
}

func (g *serveRig) unknownReplies(t *tally, name string) {
	n := g.unknown.Load()
	t.check(n == 0, "%s: %d replies to request ids never sent", name, n)
}

func serveReport(r *run, name string, m serveMeasure) {
	for _, ph := range []struct {
		name string
		p    phaseResult
	}{{"idle", m.idle}, {"busy", m.busy}} {
		lat, keep, fracs := ph.p.quietLatencies()
		r.e2e("serve_p50_ms_"+ph.name, median(lat))
		p99, q, each := chunkTail(lat, 0.99)
		r.e2e("serve_p99_ms_"+ph.name, p99)
		r.printf("%s: %s %d requests at %.0f rps; steal per 1s slice %s, kept slices %v; p99 is the lowest over chunks of p%.2f %.4g (%d samples kept); generator late max %.2fms mean %.3fms\n",
			name, ph.name, ph.p.sent, ph.p.rate, pcts(fracs), keep, 100*q, each, len(lat), ph.p.lateMaxMs, ph.p.lateMeanMs)
	}
	for _, s := range m.steps {
		p99, q := tail(s.latMs, 0.99)
		r.printf("%s: ladder %8.0f rps: %6d sent, p%.2f %.2fms, missing %d, late max %.2fms, backlog peak %d, steal %.0f%%, pass=%v\n",
			name, s.rate, s.sent, 100*q, p99, s.missing, s.lateMaxMs, s.backlogPeak, 100*s.steal, s.ok())
	}
	r.e2e("serve_max_rps", m.maxRPS)
	mp99, q, each := chunkTail(m.mergeUs, 0.99)
	r.e2e("train_merge_p99_us", mp99)
	r.printf("%s: serve_max_rps %.0f (p99 <= %dms, all replies); trainer MergeBatch p%.2f %.4g (%d samples) = %.1fus; %.2fs measured\n",
		name, m.maxRPS, serveLimitMs, 100*q, each, len(m.mergeUs), mp99, m.wall)
}

// serveSetup builds the rig setupRepeats times, keeps the last and
// reports the median build time as setup_s.
func serveSetup(r *run, traced bool) (*serveRig, error) {
	var setups []float64
	var g *serveRig
	for i := 0; i < setupRepeats; i++ {
		if g != nil {
			if err := g.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		g, err = newServeRig(r.seed, traced)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(t0)))
	}
	r.e2e("setup_s", median(setups))
	return g, nil
}

func serveDurations(total float64) (idle, busy time.Duration) {
	d := func(f float64) time.Duration { return time.Duration(f * total * float64(time.Second)) }
	return d(0.35), d(0.25)
}

// serveMixed measures the train-while-serve workload.
func serveMixed(r *run) error {
	heap := startHeapSampler()
	g, err := serveSetup(r, false)
	if err != nil {
		return err
	}
	if r.trace {
		heap.stopMB()
		if err := g.close(); err != nil {
			return err
		}
		return serveTraced(r)
	}
	runtime.GC()
	idle, busy := serveDurations(r.seconds)
	m := g.measure(idle, busy, heap)
	r.e2e("peak_heap_mb", m.heapMB)
	g.unknownReplies(&r.tally, "serve-mixed")
	checkServe(&r.tally, m, "serve-mixed", g.close())
	serveReport(r, "serve-mixed", m)
	r.printf("-- probes: sim-cruda, live-train --\n")
	if err := simProbe(r); err != nil {
		return err
	}
	return liveProbe(r)
}

// serveProbe measures the serve-mixed metrics briefly for workloads whose
// own loop does not serve.
func serveProbe(r *run) error {
	g, err := newServeRig(probeSeed, false)
	if err != nil {
		return err
	}
	runtime.GC()
	m := g.measure(3*time.Second, 2*time.Second, nil)
	g.unknownReplies(&r.tally, "serve probe")
	checkServe(&r.tally, m, "serve probe", g.close())
	serveReport(r, "serve probe", m)
	return nil
}

// serveTraced measures once untraced and once traced (serve and publish
// events, conn wrapper, CPU profile), and reports the layer splits.
func serveTraced(r *run) error {
	idle, busy := serveDurations(r.seconds)
	g, err := newServeRig(r.seed, false)
	if err != nil {
		return err
	}
	base := g.measure(idle, busy, nil)
	g.unknownReplies(&r.tally, "serve-mixed")
	checkServe(&r.tally, base, "serve-mixed", g.close())

	g, err = newServeRig(r.seed, true)
	if err != nil {
		return err
	}
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	s0, c0, m0 := g.srv.Stats(), g.cs.snapshot(), readMem()
	g.ev.on.Store(true)
	m := g.measure(idle, busy, nil)
	g.ev.on.Store(false)
	s1, c1, m1 := g.srv.Stats(), g.cs.snapshot(), readMem()
	shares, perr := prof.stop()
	g.unknownReplies(&r.tally, "serve-mixed traced")
	checkServe(&r.tally, m, "serve-mixed traced", g.close())
	if perr != nil {
		return perr
	}

	reqs := float64(s1.Served - s0.Served)
	c := c1.minus(c0)
	allocs, bytes := m1.since(m0)
	ev := g.ev
	ev.mu.Lock()
	r.layer("serve.batch_size_mean", float64(ev.batchUnits)/float64(max(ev.serves, 1)))
	r.layer("serve.queue_wait_p50_ms", median(ev.queueWaitMs))
	r.layer("serve.read_stalls", float64(ev.readStalls))
	r.layer("serve.publishes_per_s", float64(ev.snapPublishes)/m.wall)
	ev.mu.Unlock()
	r.layer("serve.batches_per_s", float64(s1.Batches-s0.Batches)/m.wall)
	p99, _, _ := chunkTail(m.mergeUs, 0.99)
	r.layer("engine.merge_batch_p50_us", median(m.mergeUs))
	r.layer("engine.merge_batch_p99_us", p99)
	r.layer("engine.gate_stall_ms_per_iter", 0)
	r.layer("transport.writes_per_iter", float64(c.writes)/reqs)
	r.layer("transport.reads_per_iter", float64(c.reads)/reqs)
	r.layer("transport.bytes_per_iter", float64(c.bytes)/reqs)
	r.layer("transport.write_us_per_iter", float64(c.writeNs)/1000/reqs)
	r.layer("runtime.allocs_per_iter", allocs/reqs)
	r.layer("runtime.alloc_bytes_per_iter", bytes/reqs)
	r.layer("runtime.gc_cpu_fraction", gcCPUFraction())
	r.layer("obs.trace_overhead_frac", 1-m.maxRPS/base.maxRPS)
	r.profileShares(shares)
	r.printf("serve-mixed traced: serve_max_rps %.0f untraced, %.0f traced; %.0f requests served\n",
		base.maxRPS, m.maxRPS, reqs)

	micro, err := runMicros(r)
	if err != nil {
		return err
	}
	r.layer("nn.fwd_bwd_us", micro["nn.fwd_bwd.live"].nsOp/1000)
	r.layer("nn.fwd_bwd_allocs", micro["nn.fwd_bwd.live"].allocsOp)
	r.layer("nn.fwd_bwd_bytes", micro["nn.fwd_bwd.live"].bytesOp)
	r.zeroLayers("core.", "livenet.")
	return nil
}
