package main

import (
	"flag"
	"io"
	"sort"
	"testing"
	"time"

	"rog/internal/atp"
	"rog/internal/compress"
	"rog/internal/durable"
	"rog/internal/engine"
	"rog/internal/nn"
	"rog/internal/rowsync"
	"rog/internal/serve"
	"rog/internal/tensor"
	"rog/internal/transport"
)

// Shape-matched layer microbenchmarks. Each calls one layer's public
// function on the shapes its workload uses: the CRUDA model (32→[64,64]→100,
// batch 24) for sim-cruda and the live-train model (32→[128,128]→10, 291
// row units, batch 16) for the socket workloads.

const (
	crudaIn, crudaClasses, crudaBatch = 32, 100, 24
	microBenchtime                    = "150ms"
	mergeSamples                      = 2000
)

var crudaHidden = []int{64, 64}

type microResult struct {
	nsOp, bytesOp, allocsOp float64
	p50us, p99us            float64 // per-call latency, where timed per call
}

type microBench struct {
	name string
	fn   func(b *testing.B)
}

var sink any

// layerShapes lists (in, out) of every Linear layer of an MLP.
func layerShapes(in int, hidden []int, out int) [][2]int {
	var s [][2]int
	prev := in
	for _, h := range append(append([]int(nil), hidden...), out) {
		s = append(s, [2]int{prev, h})
		prev = h
	}
	return s
}

func randMatrix(r *tensor.RNG, rows, cols int, zeroFrac float64) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		if r.Float64() >= zeroFrac {
			m.Data[i] = float32(r.Norm())
		}
	}
	return m
}

// kernelBench times one tensor kernel over every layer of the CRUDA model
// at batch 24, with the activations of hidden layers half zero (ReLU).
func kernelBench(kernel func(dst, a, b *tensor.Matrix), shape func(batch, in, out int) (dst, a, b [3]int, zeroA float64)) func(*testing.B) {
	return func(b *testing.B) {
		r := tensor.NewRNG(5)
		type call struct{ dst, x, y *tensor.Matrix }
		var calls []call
		for li, s := range layerShapes(crudaIn, crudaHidden, crudaClasses) {
			d, x, y, zero := shape(crudaBatch, s[0], s[1])
			if li == 0 {
				zero = 0
			}
			calls = append(calls, call{tensor.New(d[0], d[1]), randMatrix(r, x[0], x[1], zero), randMatrix(r, y[0], y[1], 0)})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, c := range calls {
				kernel(c.dst, c.x, c.y)
			}
		}
	}
}

func fwdBwdBench(in int, hidden []int, classes, batch int) func(*testing.B) {
	return func(b *testing.B) {
		r := tensor.NewRNG(9)
		m := nn.NewClassifierMLP(in, hidden, classes, r)
		x := randMatrix(r, batch, in, 0)
		y := make([]int, batch)
		for i := range y {
			y[i] = r.Intn(classes)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, g := nn.SoftmaxCrossEntropy(m.Forward(x), y)
			m.Backward(g)
			m.ZeroGrads()
		}
	}
}

func forwardBench(batch int) func(*testing.B) {
	return func(b *testing.B) {
		r := tensor.NewRNG(13)
		m := newLiveModel(1)
		x := randMatrix(r, batch, liveIn, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = m.Forward(x)
		}
	}
}

// liveRows returns the live-train partition and one random gradient row
// per unit.
func liveRows() (*rowsync.Partition, [][]float32) {
	part := rowsync.NewPartition(newLiveModel(1).Params(), rowsync.Rows)
	r := tensor.NewRNG(17)
	rows := make([][]float32, part.NumUnits())
	for u := range rows {
		rows[u] = make([]float32, part.Unit(u).Len)
		for i := range rows[u] {
			rows[u][i] = float32(r.Norm() * 0.01)
		}
	}
	return part, rows
}

func newMergeState(part *rowsync.Partition) *engine.State {
	pol, err := engine.New("rog", engine.Params{
		Workers: liveWorkers, Threshold: liveThreshold, NumUnits: part.NumUnits(), Coeff: atp.DefaultCoefficients(),
	})
	if err != nil {
		panic(err) // "rog" is always registered
	}
	return engine.NewStateSharded(pol, part, liveWorkers, liveMTAFloor, liveShards)
}

func allUnits(n int) []int {
	u := make([]int, n)
	for i := range u {
		u[i] = i
	}
	return u
}

// mergeBench merges one full push (all 291 units) per op, the two workers
// alternating; with journal, every merge is also a WAL record on an
// in-memory filesystem (the encode and append cost without the disk),
// rotated every 32 ops so the log stays small.
func mergeBench(journal bool) func(*testing.B) {
	return func(b *testing.B) {
		part, rows := liveRows()
		st := newMergeState(part)
		var store *durable.Store
		if journal {
			var err error
			if store, err = durable.Open(durable.NewMemFS(), "bench"); err != nil {
				b.Fatal(err)
			}
			if err := store.Begin(st, nil); err != nil {
				b.Fatal(err)
			}
		}
		units := allUnits(part.NumUnits())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.MergeBatch(i%liveWorkers, units, rows, int64(i/liveWorkers+1))
			if store != nil && i%32 == 31 {
				b.StopTimer()
				if err := store.Checkpoint(st, nil); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
	}
}

// mergeLatency times mergeSamples single MergeBatch calls of one full push.
func mergeLatency() (p50, p99 float64) {
	part, rows := liveRows()
	st := newMergeState(part)
	units := allUnits(part.NumUnits())
	lat := make([]float64, 0, mergeSamples)
	for i := 0; i < mergeSamples; i++ {
		t0 := time.Now()
		st.MergeBatch(i%liveWorkers, units, rows, int64(i/liveWorkers+1))
		lat = append(lat, micros(time.Since(t0)))
	}
	v, _ := tail(lat, 0.99)
	return median(lat), v
}

func microBenches() []microBench {
	part, rows := liveRows()
	widths := part.Widths()
	return []microBench{
		{"tensor.mul.cruda", kernelBench(tensor.MulInto, func(n, in, out int) ([3]int, [3]int, [3]int, float64) {
			return [3]int{n, out}, [3]int{n, in}, [3]int{in, out}, 0.5
		})},
		{"tensor.mul_transa.cruda", kernelBench(tensor.MulTransAInto, func(n, in, out int) ([3]int, [3]int, [3]int, float64) {
			return [3]int{in, out}, [3]int{n, in}, [3]int{n, out}, 0.5
		})},
		{"tensor.mul_transb.cruda", kernelBench(tensor.MulTransBInto, func(n, in, out int) ([3]int, [3]int, [3]int, float64) {
			return [3]int{n, in}, [3]int{n, out}, [3]int{in, out}, 0
		})},
		{"nn.fwd_bwd.cruda", fwdBwdBench(crudaIn, crudaHidden, crudaClasses, crudaBatch)},
		{"nn.fwd_bwd.live", fwdBwdBench(liveIn, liveHidden, liveClasses, liveBatch)},
		{"nn.forward.b1", forwardBench(1)},
		{"nn.forward.b16", forwardBench(liveBatch)},
		{"compress.encode.live", func(b *testing.B) {
			c := compress.NewCodec(widths)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for u, g := range rows {
					sink = c.Encode(u, g)
				}
			}
		}},
		{"compress.decode.live", func(b *testing.B) {
			c := compress.NewCodec(widths)
			pays := make([]compress.Payload, len(rows))
			outs := make([][]float32, len(rows))
			for u, g := range rows {
				pays[u], outs[u] = c.Encode(u, g), make([]float32, len(g))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for u := range pays {
					compress.Decode(pays[u], outs[u])
				}
			}
		}},
		{"atp.plan.live", func(b *testing.B) {
			r := tensor.NewRNG(21)
			info := make([]atp.RowInfo, part.NumUnits())
			for u := range info {
				info[u] = atp.RowInfo{ID: u, MeanAbs: r.Float64(), Iter: int64(r.Intn(liveThreshold))}
			}
			size := func(u int) float64 { return float64(part.WireSize(u)) }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = atp.NewPlan(atp.Rank(info, atp.Worker, atp.DefaultCoefficients()), size)
			}
		}},
		{"rowsync.meanabs.live", func(b *testing.B) {
			gs := rowsync.NewGradStore(part)
			for u, g := range rows {
				gs.AddUnit(u, g, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var s float64
			for i := 0; i < b.N; i++ {
				for u := range rows {
					s += gs.MeanAbs(u)
				}
			}
			sink = s
		}},
		{"engine.merge_batch", mergeBench(false)},
		{"engine.merge_batch.journal", mergeBench(true)},
		{"serve.encode_request", func(b *testing.B) {
			in := rows[0][:liveIn]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = serve.EncodeRequest(serve.RequestFrame{ID: uint64(i), MinVersion: 7, Input: in})
			}
		}},
		{"serve.decode_request", func(b *testing.B) {
			buf := serve.EncodeRequest(serve.RequestFrame{ID: 1, MinVersion: 7, Input: rows[0][:liveIn]})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := serve.DecodeRequest(buf)
				if err != nil {
					b.Fatal(err)
				}
				sink = f
			}
		}},
		{"serve.encode_reply", func(b *testing.B) {
			out := rows[0][:liveClasses]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = serve.EncodeReply(serve.ReplyFrame{ID: uint64(i), Version: 7, Seq: 3, Output: out})
			}
		}},
		{"serve.decode_reply", func(b *testing.B) {
			buf := serve.EncodeReply(serve.ReplyFrame{ID: 1, Version: 7, Seq: 3, Output: rows[0][:liveClasses]})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := serve.DecodeReply(buf)
				if err != nil {
					b.Fatal(err)
				}
				sink = f
			}
		}},
		{"transport.write_frame", func(b *testing.B) {
			c := compress.NewCodec(widths)
			payload := c.Encode(1, rows[1]).Marshal()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := transport.WriteFrame(io.Discard, payload); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// microNames lists the benchmarks in report order (for the metric table).
func microNames() []string {
	var names []string
	for _, b := range microBenches() {
		names = append(names, b.name)
	}
	return names
}

// runMicros runs every microbenchmark and the durable journal
// measurement, and reports the per-layer metrics derived from them; it
// returns the raw results for workload-specific choices (which model's
// forward/backward, merge latency).
func runMicros(r *run) (map[string]microResult, error) {
	if err := flag.Set("test.benchtime", microBenchtime); err != nil {
		panic(err) // testing.Init registered the flag
	}
	out := map[string]microResult{}
	for _, mb := range microBenches() {
		res := testing.Benchmark(mb.fn)
		if res.N == 0 {
			r.tally.check(false, "microbenchmark %s failed", mb.name)
			continue
		}
		out[mb.name] = microResult{
			nsOp: float64(res.T.Nanoseconds()) / float64(res.N),
			// testing's per-op figures are integer-rounded; derive exact ones.
			bytesOp:  float64(res.MemBytes) / float64(res.N),
			allocsOp: float64(res.MemAllocs) / float64(res.N),
		}
	}
	mr := out["engine.merge_batch"]
	mr.p50us, mr.p99us = mergeLatency()
	out["engine.merge_batch"] = mr

	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	r.printf("%-28s %14s %12s %10s\n", "microbenchmark", "ns/op", "B/op", "allocs/op")
	for _, k := range names {
		m := out[k]
		r.printf("%-28s %14.1f %12.1f %10.2f\n", k, m.nsOp, m.bytesOp, m.allocsOp)
		r.layer("micro."+k+".ns_op", m.nsOp)
		r.layer("micro."+k+".b_op", m.bytesOp)
		r.layer("micro."+k+".allocs_op", m.allocsOp)
	}
	part, _ := liveRows()
	units := float64(part.NumUnits())
	r.layer("tensor.mul_ns", out["tensor.mul.cruda"].nsOp)
	r.layer("tensor.mul_transa_ns", out["tensor.mul_transa.cruda"].nsOp)
	r.layer("tensor.mul_transb_ns", out["tensor.mul_transb.cruda"].nsOp)
	r.layer("nn.forward_batch_us.b1", out["nn.forward.b1"].nsOp/1000)
	r.layer("nn.forward_batch_us.b16", out["nn.forward.b16"].nsOp/1000)
	r.layer("compress.encode_ns_per_row", out["compress.encode.live"].nsOp/units)
	r.layer("compress.decode_ns_per_row", out["compress.decode.live"].nsOp/units)
	r.layer("compress.encode_allocs", out["compress.encode.live"].allocsOp/units)
	r.layer("atp.plan_us", out["atp.plan.live"].nsOp/1000)
	r.layer("rowsync.meanabs_ns_per_unit", out["rowsync.meanabs.live"].nsOp/units)
	return out, durableJournal(r)
}
