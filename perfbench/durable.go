package main

import (
	"fmt"
	"os"
	"path/filepath"

	"rog/internal/atp"
	"rog/internal/durable"
	"rog/internal/engine"
)

// durablePushes is how many full pushes the journal measurement merges:
// 291 WAL records and syncs each.
const durablePushes = 20

// durableJournal measures the crash-consistency layer on the real
// filesystem. It merges durablePushes full live-train pushes (the two
// workers alternating) into a 2-shard state that journals to a
// durable.Store on durable.OSFS with the store defaults (SyncEvery 1: one
// WAL record and one sync per merged row), counting writes and timing
// syncs through countingFS. It then recovers the store and checks that
// the recovered row versions equal the live state's. "iter" in the
// durable.* metrics is one merged push.
func durableJournal(r *run) error {
	dir, err := os.MkdirTemp(r.scratch, "durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store := filepath.Join(dir, "store")
	fs := &fsStats{}
	st, err := durable.Open(countingFS{FS: durable.OSFS{}, st: fs}, store)
	if err != nil {
		return err
	}
	part, rows := liveRows()
	state := newMergeState(part)
	if err := st.Begin(state, nil); err != nil {
		return err
	}
	units := allUnits(part.NumUnits())
	f0 := fs.snapshot()
	for i := 0; i < durablePushes; i++ {
		state.MergeBatch(i%liveWorkers, units, rows, int64(i/liveWorkers+1))
	}
	f1 := fs.snapshot()
	r.tally.attempt(durablePushes)
	if err := st.Err(); err != nil {
		r.tally.fail(durablePushes, "durable journal: %v", err)
	}

	d, syncs := f1.minus(f0), fs.syncSamples(f0, f1)
	n := float64(durablePushes)
	r.layer("durable.wal_writes_per_iter", float64(d.walWrites)/n)
	r.layer("durable.syncs_per_iter", float64(d.syncs)/n)
	r.layer("durable.write_bytes_per_iter", float64(d.bytes)/n)
	p99, q := tail(syncs, 0.99)
	r.layer("durable.sync_p50_us", median(syncs))
	r.layer("durable.sync_p99_us", p99)
	r.printf("durable journal: %d pushes, %d WAL writes, %d syncs (p%.2f of %d sync latencies reported)\n",
		durablePushes, d.walWrites, d.syncs, 100*q, len(syncs))

	err = recoveredMatches(store, state)
	r.tally.check(err == nil, "durable journal: %v", err)
	return nil
}

// recoveredMatches recovers the store in dir and compares every row
// version with the live state's.
func recoveredMatches(dir string, live *engine.State) error {
	st, err := durable.Open(durable.OSFS{}, dir)
	if err != nil {
		return err
	}
	part, _ := liveRows()
	pol, err := engine.New("rog", engine.Params{
		Workers: liveWorkers, Threshold: liveThreshold, NumUnits: part.NumUnits(), Coeff: atp.DefaultCoefficients(),
	})
	if err != nil {
		return err
	}
	rec, _, err := st.RecoverSharded(pol, part, liveWorkers, liveMTAFloor, liveShards)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	for w := 0; w < liveWorkers; w++ {
		for u := 0; u < part.NumUnits(); u++ {
			if a, b := rec.Versions.Get(w, u), live.Versions.Get(w, u); a != b {
				return fmt.Errorf("recovered version of worker %d unit %d is %d, live state has %d", w, u, a, b)
			}
		}
	}
	return nil
}
