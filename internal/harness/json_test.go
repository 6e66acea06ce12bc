package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunJSONReportChurn runs the churn experiment at tiny scale through
// the JSON exporter: the report must round-trip through encoding/json with
// populated systems, series and churn counters.
func TestRunJSONReportChurn(t *testing.T) {
	rep, err := RunJSONReport("churn", tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "churn" || rep.Scale != "tiny" || rep.Faults == "" {
		t.Fatalf("report header incomplete: %+v", rep)
	}
	if len(rep.Systems) != len(SensitivitySystems()) {
		t.Fatalf("systems = %d, want %d", len(rep.Systems), len(SensitivitySystems()))
	}
	for _, s := range rep.Systems {
		if s.Label == "" || s.Iterations == 0 || len(s.Series) == 0 {
			t.Fatalf("system entry incomplete: %+v", s)
		}
		if s.Churn == nil {
			t.Fatalf("churn run exported no churn counters for %s", s.Label)
		}
		if s.ComputeSeconds <= 0 {
			t.Fatalf("%s compute = %g", s.Label, s.ComputeSeconds)
		}
	}
	// The faulted worker crashed and rejoined in at least one system.
	var reconnects int
	for _, s := range rep.Systems {
		reconnects += s.Churn.Reconnects
	}
	if reconnects == 0 {
		t.Fatal("no system recorded the scripted rejoin")
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Target != rep.Target || len(back.Systems) != len(rep.Systems) {
		t.Fatalf("round-trip changed the report: %+v", back)
	}
}

// TestRunJSONReportLoss runs the loss experiment at tiny scale through the
// JSON exporter: the header must name the injected channel and every system
// must carry loss counters.
func TestRunJSONReportLoss(t *testing.T) {
	rep, err := RunJSONReport("loss", tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loss != "ge:0.05" || rep.Reliability != "selective" {
		t.Fatalf("loss header incomplete: loss=%q reliability=%q", rep.Loss, rep.Reliability)
	}
	if len(rep.Systems) != len(SensitivitySystems()) {
		t.Fatalf("systems = %d, want %d", len(rep.Systems), len(SensitivitySystems()))
	}
	var retransmitted int
	for _, s := range rep.Systems {
		if s.Loss == nil {
			t.Fatalf("loss run exported no loss counters for %s", s.Label)
		}
		retransmitted += s.Loss.RowsRetransmitted
		if s.Strategy == "ROG" && s.Loss.RowsLostFolded == 0 {
			t.Errorf("%s folded no best-effort rows at 5%% loss", s.Label)
		}
		if s.Strategy == "BSP" && s.Loss.RowsLostFolded != 0 {
			t.Errorf("BSP folded %d rows — whole-model plans are fully reliable", s.Loss.RowsLostFolded)
		}
	}
	if retransmitted == 0 {
		t.Fatal("no system retransmitted anything at 5% loss")
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Loss != rep.Loss || back.Systems[0].Loss == nil {
		t.Fatalf("round-trip dropped the loss fields: %+v", back)
	}
}

// TestRunJSONReportExtRecovery runs the checkpoint-policy sweep at tiny
// scale: the baseline entry carries no recovery block, every sweep cell
// carries exactly one recovery with its policy knobs, and a sweep cell with
// lazy WAL syncing must not replay more than its eager sibling at the same
// interval.
func TestRunJSONReportExtRecovery(t *testing.T) {
	rep, err := RunJSONReport("ext-recovery", tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "ext-recovery" || rep.Faults == "" {
		t.Fatalf("report header incomplete: %+v", rep)
	}
	if len(rep.Systems) != 5 {
		t.Fatalf("systems = %d, want baseline + 4 sweep cells", len(rep.Systems))
	}
	if rep.Systems[0].Recovery != nil {
		t.Fatal("uninterrupted baseline carries recovery counters")
	}
	for _, s := range rep.Systems[1:] {
		rec := s.Recovery
		if rec == nil {
			t.Fatalf("sweep cell %s exported no recovery counters", s.Label)
		}
		if rec.Recoveries != 1 {
			t.Errorf("%s: %d recoveries, want exactly 1", s.Label, rec.Recoveries)
		}
		if rec.SnapshotBytes <= 0 || rec.DowntimeSeconds <= 0 {
			t.Errorf("%s: empty recovery (%+v)", s.Label, rec)
		}
		if rec.CheckpointEverySeconds <= 0 || rec.WALSyncEvery <= 0 {
			t.Errorf("%s: policy knobs missing (%+v)", s.Label, rec)
		}
		if s.Iterations == 0 || len(s.Series) == 0 {
			t.Errorf("%s: run produced no training history", s.Label)
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Systems[1].Recovery == nil || *back.Systems[1].Recovery != *rep.Systems[1].Recovery {
		t.Fatalf("round-trip changed the recovery block: %+v", back.Systems[1].Recovery)
	}
}

// TestRunJSONReportUnknownID checks the exporter refuses non-exportable
// experiment ids instead of writing an empty file.
func TestRunJSONReportUnknownID(t *testing.T) {
	if _, err := RunJSONReport("fig3", tinyScale); err == nil {
		t.Fatal("fig3 (no JSON shape) accepted")
	}
}

// TestDriftTableGate checks that DriftTable reports a match only when no
// system row moved.
func TestDriftTableGate(t *testing.T) {
	base := &Report{Systems: []SystemReport{{Label: "a", Iterations: 10, FinalValue: 0.5, TotalJoules: 3, MaxStaleness: 2}, {Label: "b"}}}
	if _, same := DriftTable(base, base); !same {
		t.Fatal("identical reports drifted")
	}
	for i, edit := range []func(s []SystemReport) []SystemReport{
		func(s []SystemReport) []SystemReport { s[0].Iterations++; return s },
		func(s []SystemReport) []SystemReport { s[0].FinalValue = 0.4; return s },
		func(s []SystemReport) []SystemReport { s[0].TotalJoules = 4; return s },
		func(s []SystemReport) []SystemReport { s[0].MaxStaleness = 3; return s },
		func(s []SystemReport) []SystemReport { s[1].Label = "c"; return s },
		func(s []SystemReport) []SystemReport { return s[:1] },
		func(s []SystemReport) []SystemReport { return append(s, SystemReport{Label: "c"}) },
	} {
		cur := &Report{Systems: edit(append([]SystemReport(nil), base.Systems...))}
		if _, same := DriftTable(base, cur); same {
			t.Errorf("edit %d went undetected", i)
		}
	}
}
