package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified. +Inf
// entries (missed replies) sort last, so they raise the upper quantiles.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQ is the highest quantile at or below want that still has at least
// ten samples beyond it — the highest percentile n samples support.
func tailQ(n int, want float64) float64 {
	if n <= 20 {
		return 0.5
	}
	return math.Min(want, 1-10/float64(n))
}

// tail reports the supported tail quantile of xs and which quantile it is.
func tail(xs []float64, want float64) (value, q float64) {
	q = tailQ(len(xs), want)
	return quantile(xs, q), q
}

// tailChunks is how many consecutive chunks chunkTail splits a tail's
// samples into, so one disturbed stretch of a run (a collection, a noisy
// neighbour) does not move it.
const tailChunks = 5

// minChunk is the fewest samples a chunk may hold: enough for p98 with
// ten samples beyond it.
const minChunk = 500

// chunkTail splits xs (in time order) into up to tailChunks consecutive
// chunks of at least minChunk samples and returns the lowest across
// chunks of each chunk's highest supported quantile at most want, the
// quantile used, and every chunk's value. With too few samples for two
// chunks it returns the supported tail of all of xs.
//
// A burst of stolen CPU or a collection delays whatever is in flight, so
// a chunk's tail measures the neighbours as much as the code. The
// least-disturbed chunk still carries every cost the code adds to each
// request or iteration, so a regression in the code moves it, while a
// burst in some other chunk does not.
func chunkTail(xs []float64, want float64) (value, q float64, each []float64) {
	k := min(tailChunks, len(xs)/minChunk)
	if k < 2 {
		v, q := tail(xs, want)
		return v, q, []float64{v}
	}
	value = math.Inf(1)
	for i := 0; i < k; i++ {
		part := xs[i*len(xs)/k : (i+1)*len(xs)/k]
		v, pq := tail(part, want)
		each = append(each, v)
		value = math.Min(value, v)
		q = pq
	}
	return value, q, each
}

// cpuSteal reads the CPU time the hypervisor took from this machine so
// far, and the total, in clock ticks (0, 0 where /proc/stat is missing).
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealLog samples the machine's CPU steal every stealEvery for the
// whole run, so any interval's steal share can be looked up afterwards.
//
// On the shared host this benchmark was tuned on, steal comes in bursts:
// sampled every 0.5 s under full load it read 0–3% most of the time and
// 10–40% for half a second to a second and a half, a few times a minute.
// A burst slows whatever runs through it by far more than its share, so
// the measurements below keep the parts of a run that lost least.
type stealLog struct {
	mu    sync.Mutex
	at    []time.Time
	steal []uint64
	total []uint64
	stop  chan struct{}
	done  chan struct{}
}

const stealEvery = 100 * time.Millisecond

var steals *stealLog

func startStealLog() *stealLog {
	l := &stealLog{stop: make(chan struct{}), done: make(chan struct{})}
	l.sample()
	go func() {
		defer close(l.done)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
				l.sample()
			}
		}
	}()
	return l
}

func (l *stealLog) sample() {
	st, tot := cpuSteal()
	now := time.Now()
	l.mu.Lock()
	l.at = append(l.at, now)
	l.steal = append(l.steal, st)
	l.total = append(l.total, tot)
	l.mu.Unlock()
}

func (l *stealLog) close() {
	close(l.stop)
	<-l.done
}

// frac is the steal share of machine CPU time from the last sample at or
// before a to the first sample at or after b (b in the past), or 0
// where /proc/stat is missing.
func (l *stealLog) frac(a, b time.Time) float64 {
	l.sample()
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.at), func(k int) bool { return l.at[k].After(a) }) - 1
	j := sort.Search(len(l.at), func(k int) bool { return !l.at[k].Before(b) })
	i, j = max(i, 0), min(j, len(l.at)-1)
	if l.total[j] <= l.total[i] {
		return 0
	}
	return float64(l.steal[j]-l.steal[i]) / float64(l.total[j]-l.total[i])
}

// quietSlices cuts [start, start+d) into k equal slices and returns the
// indices, in time order, of the ceil(k/2) that lost least CPU to steal.
func quietSlices(start time.Time, d time.Duration, k int) (keep []int, fracs []float64) {
	order := make([]int, k)
	for i := range order {
		order[i] = i
		a := start.Add(d * time.Duration(i) / time.Duration(k))
		b := start.Add(d * time.Duration(i+1) / time.Duration(k))
		fracs = append(fracs, steals.frac(a, b))
	}
	sort.SliceStable(order, func(x, y int) bool { return fracs[order[x]] < fracs[order[y]] })
	keep = append(keep, order[:(k+1)/2]...)
	sort.Ints(keep)
	return keep, fracs
}

// pcts renders shares as whole percentages.
func pcts(fracs []float64) string {
	parts := make([]string, len(fracs))
	for i, f := range fracs {
		parts[i] = strconv.Itoa(int(math.Round(100*f))) + "%"
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tally counts the operations a run attempted and the ones that failed
// an output check. Every failure keeps a note for the report.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	notes     []string
}

func (t *tally) attempt(n int64) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

// check counts one attempted check and a failure when ok is false.
func (t *tally) check(ok bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < 20 {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
	}
}

// fail counts n failed operations that were already counted as attempted.
func (t *tally) fail(n int64, format string, args ...any) {
	if n == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed += n
	if len(t.notes) < 20 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// heapSampler tracks the heap in use (runtime.MemStats.HeapInuse: object
// bytes plus unused bytes of in-use spans) while running. It reads
// runtime/metrics every millisecond, which does not stop the world the
// way ReadMemStats does, so sampling is dense enough to catch the peak
// before each collection, and keeps the peak of every second.
type heapSampler struct {
	start   time.Time
	stop    chan struct{}
	done    chan struct{}
	samples []metrics.Sample // used by the sampling goroutine only
	peaks   []uint64         // peak of each second; read after done closes
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{}), samples: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	metrics.Read(h.samples)
	inuse := h.samples[0].Value.Uint64() + h.samples[1].Value.Uint64()
	sec := int(time.Since(h.start) / time.Second)
	for len(h.peaks) <= sec {
		h.peaks = append(h.peaks, 0)
	}
	h.peaks[sec] = max(h.peaks[sec], inuse)
}

// stopMB stops the sampler and returns the median across whole seconds
// of each second's peak, in MiB (the one partial second when the run was
// shorter): a collection's timing moves a single peak, not the median.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	peaks := h.peaks
	if len(peaks) > 1 {
		peaks = peaks[:len(peaks)-1]
	}
	mb := make([]float64, len(peaks))
	for i, p := range peaks {
		mb[i] = float64(p) / (1 << 20)
	}
	return median(mb)
}

// memDelta captures allocation counters over a window.
type memDelta struct{ mallocs, bytes uint64 }

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.Mallocs, ms.TotalAlloc}
}

func (a memDelta) since(b memDelta) (allocs, bytes float64) {
	return float64(a.mallocs - b.mallocs), float64(a.bytes - b.bytes)
}

func gcCPUFraction() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.GCCPUFraction
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
