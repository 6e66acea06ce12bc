package main

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rog/internal/durable"
	"rog/internal/obs"
)

// connStats counts socket calls through countingConn.
type connStats struct {
	writes, reads, wbytes, rbytes, writeNs atomic.Int64
}

type connCounts struct {
	writes, reads, bytes int64
	writeNs              int64
}

func (s *connStats) snapshot() connCounts {
	return connCounts{
		writes:  s.writes.Load(),
		reads:   s.reads.Load(),
		bytes:   s.wbytes.Load() + s.rbytes.Load(),
		writeNs: s.writeNs.Load(),
	}
}

func (a connCounts) minus(b connCounts) connCounts {
	return connCounts{a.writes - b.writes, a.reads - b.reads, a.bytes - b.bytes, a.writeNs - b.writeNs}
}

// countingConn wraps a net.Conn and counts its reads and writes. Deadlines
// and Close pass through to the wrapped connection.
type countingConn struct {
	net.Conn
	st *connStats
}

// wrapConn returns conn itself when st is nil (untraced runs).
func wrapConn(conn net.Conn, st *connStats) net.Conn {
	if st == nil {
		return conn
	}
	return countingConn{Conn: conn, st: st}
}

func (c countingConn) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(p)
	c.st.writeNs.Add(int64(time.Since(t)))
	c.st.writes.Add(1)
	c.st.wbytes.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.reads.Add(1)
	c.st.rbytes.Add(int64(n))
	return n, err
}

// fsStats counts durable-store file traffic through countingFS.
type fsStats struct {
	mu        sync.Mutex
	walWrites int64
	writes    int64
	bytes     int64
	syncs     int64
	syncUs    []float64
}

type fsCounts struct {
	walWrites, writes, bytes, syncs int64
	nSyncSamples                    int
}

func (s *fsStats) snapshot() fsCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fsCounts{s.walWrites, s.writes, s.bytes, s.syncs, len(s.syncUs)}
}

func (a fsCounts) minus(b fsCounts) fsCounts {
	return fsCounts{a.walWrites - b.walWrites, a.writes - b.writes, a.bytes - b.bytes, a.syncs - b.syncs, a.nSyncSamples - b.nSyncSamples}
}

// syncSamples returns the sync latencies recorded after snapshot from.
func (s *fsStats) syncSamples(from fsCounts, to fsCounts) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.syncUs[from.nSyncSamples:to.nSyncSamples]...)
}

// countingFS wraps a durable.FS and counts writes and syncs of the files
// it creates, timing every sync.
type countingFS struct {
	durable.FS
	st *fsStats
}

func (f countingFS) Create(name string) (durable.File, error) {
	h, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	base := name[strings.LastIndex(name, "/")+1:]
	return &countingFile{File: h, st: f.st, wal: strings.HasPrefix(base, "wal-")}, nil
}

type countingFile struct {
	durable.File
	st  *fsStats
	wal bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.st.mu.Lock()
	f.st.writes++
	if f.wal {
		f.st.walWrites++
	}
	f.st.bytes += int64(n)
	f.st.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	d := time.Since(t)
	f.st.mu.Lock()
	f.st.syncs++
	f.st.syncUs = append(f.st.syncUs, micros(d))
	f.st.mu.Unlock()
	return err
}

// eventTally is an obs.Tracer that keeps only the splits the per-layer
// report needs. It counts while on is set, so warm-up events are dropped.
type eventTally struct {
	on atomic.Bool

	mu            sync.Mutex
	iterEnds      int64
	merges        int64
	pushUnits     int64
	plannedUnits  int64
	sentBytes     float64
	stallSeconds  float64
	serves        int64
	batchUnits    int64
	queueWaitMs   []float64
	readStalls    int64
	snapPublishes int64
}

func (t *eventTally) Emit(e obs.Event) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e.Kind {
	case obs.KindIterEnd:
		t.iterEnds++
	case obs.KindMerge:
		t.merges++
	case obs.KindPushPlanned:
		if e.Cause != "skip" {
			t.plannedUnits += int64(e.Units)
		}
	case obs.KindRowsSent:
		if e.Dir != obs.DirPull {
			t.pushUnits += int64(e.Units)
		}
		t.sentBytes += e.Bytes
	case obs.KindStallEnd:
		t.stallSeconds += e.Seconds
	case obs.KindRequestServe:
		t.serves++
		t.batchUnits += int64(e.Units)
		t.queueWaitMs = append(t.queueWaitMs, e.Seconds*1000)
	case obs.KindReadStallBegin:
		t.readStalls++
	case obs.KindSnapshotPublish:
		t.snapPublishes++
	}
}
