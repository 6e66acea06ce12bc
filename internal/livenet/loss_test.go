package livenet

import (
	"net"
	"sync"
	"testing"
	"time"

	"rog/internal/lossnet"
	"rog/internal/nn"
	"rog/internal/rowsync"
	"rog/internal/tensor"
	"rog/internal/transport"
)

// TestLossyRowFramesBoundedStaleness runs the live protocol with every
// worker's uplink behind a lossnet frame-dropping conn that discards row
// frames only (the kind byte sits right after the 12-byte transport header,
// so control frames — push-done, pull, pull-done — pass untouched and act
// as the reliable side channel). This is the stream-transport half of the
// loss story: a silently dropped row simply never merges, so its gradient
// mass is gone from the server's view until the worker's next push re-sends
// that unit with fresh mass. The run must still complete every iteration
// and the RSP staleness bound must hold throughout — the gate parks workers
// on the true (server-side) minimum, which only merges advance.
//
// What the stream path *cannot* see is the gap itself: the worker stamps
// pushIter optimistically at send, so a dropped row is indistinguishable
// from a delivered one on the sender — a known limitation of the stream
// transport.
func TestLossyRowFramesBoundedStaleness(t *testing.T) {
	const workers, threshold, iters = 3, 4, 25
	proto := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(41))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	srv, err := NewServer(part, ServerConfig{Workers: workers, Threshold: threshold})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}

	dropRowFrames := func(b []byte) bool { return len(b) > 12 && b[12] == kindRow }

	var models []*nn.Sequential
	var ws []*Worker
	var lossy []*lossnet.Conn
	var handlerWG sync.WaitGroup
	var conns []net.Conn
	for i := 0; i < workers; i++ {
		m := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(1))
		m.CopyParamsFrom(proto)
		models = append(models, m)
		c, s := net.Pipe()
		conns = append(conns, c, s)
		handlerWG.Add(1)
		go func(id int, conn net.Conn) {
			defer handlerWG.Done()
			if err := srv.HandleConn(id, conn); err != nil {
				t.Errorf("server handler %d: %v", id, err)
			}
		}(i, s)
		lc := lossnet.WrapConn(c, lossnet.NewGilbertElliott(0.05, 4, uint64(i)*977+13), dropRowFrames)
		lossy = append(lossy, lc)
		ws = append(ws, NewWorker(m, part, lc, WorkerConfig{
			ID: i, Threshold: threshold, LR: 0.1, Momentum: 0.9,
		}))
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
		srv.Close()
		handlerWG.Wait()
	}()

	data := newClusterData(23)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(id int, w *Worker) {
			defer wg.Done()
			r := tensor.NewRNG(uint64(id)*31 + 7)
			for k := 0; k < iters; k++ {
				err := w.RunIteration(func() {
					x, y := data.batch(r, 16)
					_, g := nn.SoftmaxCrossEntropy(models[id].Forward(x), y)
					models[id].Backward(g)
				})
				if err != nil {
					t.Errorf("worker %d iter %d: %v", id, k, err)
					return
				}
			}
		}(i, w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("deadlock: lossy cluster did not finish")
	}

	for i, w := range ws {
		if got := w.Iterations(); got != iters {
			t.Errorf("worker %d completed %d/%d iterations under loss", i, got, iters)
		}
	}
	if got := srv.MaxStalenessObserved(); got > threshold {
		t.Errorf("staleness %d exceeded threshold %d under frame loss", got, threshold)
	}
	var drops, bytes int64
	for _, lc := range lossy {
		d, b := lc.Dropped()
		drops += d
		bytes += b
	}
	if drops == 0 {
		t.Fatal("the 5% channel dropped nothing — the loss injector never fired")
	}
	if bytes == 0 {
		t.Fatal("dropped frames carried no bytes")
	}
	t.Logf("dropped %d row frames (%d bytes) across %d workers", drops, bytes, workers)
}

// TestLossyConnPassesControlFrames pins the droppable predicate the chaos
// test relies on: with a rate-1.0 channel, every row frame vanishes but the
// push-done control frame still crosses — dropping it would stall the
// protocol rather than degrade it.
func TestLossyConnPassesControlFrames(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	lc := lossnet.WrapConn(a, lossnet.NewBernoulli(1.0, 1), func(b []byte) bool {
		return len(b) > 12 && b[12] == kindRow
	})

	got := make(chan byte, 1)
	errs := make(chan error, 1)
	go func() {
		buf := make([]byte, 256)
		n, err := b.Read(buf)
		if err != nil {
			errs <- err
			return
		}
		// Frame layout: 8-byte start marker, 4-byte length, payload.
		got <- buf[:n][12]
	}()

	if err := transport.WriteFrame(lc, rowMsg(3, compressPayload(t))); err != nil {
		t.Fatalf("row write: %v", err)
	}
	if err := transport.WriteFrame(lc, pushDoneMsg(3, 0.001)); err != nil {
		t.Fatalf("control write: %v", err)
	}

	select {
	case k := <-got:
		if k != kindPushDone {
			t.Fatalf("first frame through the channel was %q, want push-done", k)
		}
	case err := <-errs:
		t.Fatalf("read: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("control frame never arrived — the predicate dropped it")
	}
	if d, _ := lc.Dropped(); d != 1 {
		t.Fatalf("dropped %d frames, want exactly the row frame", d)
	}
}
