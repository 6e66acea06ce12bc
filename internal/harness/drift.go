package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"rog/internal/metrics"
)

// Bench-drift support: `make bench-save` snapshots a rogbench -json report
// to BENCH_<n>.json, and `rogbench -drift BENCH_<n>.json` reruns the same
// experiment at the same scale and renders what moved. The simnet is
// deterministic, so any drift is a real behaviour change: the committed
// snapshots are behaviour goldens, and a change that moves them must
// re-baseline them explicitly.

// ReadJSONReport parses a report previously written by Report.WriteJSON.
func ReadJSONReport(r io.Reader) (*Report, error) {
	var rep Report
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("harness: parsing benchmark snapshot: %w", err)
	}
	if rep.Experiment == "" {
		return nil, fmt.Errorf("harness: benchmark snapshot names no experiment")
	}
	return &rep, nil
}

// driftPct renders a relative change, guarding the zero baseline.
func driftPct(base, cur float64) string {
	if base == cur {
		return "="
	}
	if base == 0 {
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-base)/math.Abs(base))
}

// DriftTable compares a fresh report against a snapshot of the same
// experiment, one row per system (matched by label). same reports whether
// every row matched exactly: no system new or dropped, every Δ cell "=" and
// the maximum staleness unchanged.
func DriftTable(base, cur *Report) (table string, same bool) {
	same = true
	var b strings.Builder
	fmt.Fprintf(&b, "bench drift: %s (scale=%s, snapshot scale=%s)\n",
		cur.Experiment, cur.Scale, base.Scale)
	byLabel := make(map[string]*SystemReport, len(base.Systems))
	for i := range base.Systems {
		byLabel[base.Systems[i].Label] = &base.Systems[i]
	}
	var rows [][]string
	for i := range cur.Systems {
		c := &cur.Systems[i]
		o, ok := byLabel[c.Label]
		if !ok {
			same = false
			rows = append(rows, []string{c.Label, "-", fmt.Sprintf("%d", c.Iterations),
				"new", "new", "new", fmt.Sprintf("%d", c.MaxStaleness)})
			continue
		}
		delete(byLabel, c.Label)
		same = same && o.Iterations == c.Iterations && o.FinalValue == c.FinalValue &&
			o.TotalJoules == c.TotalJoules && o.MaxStaleness == c.MaxStaleness
		rows = append(rows, []string{
			c.Label,
			fmt.Sprintf("%d", o.Iterations),
			fmt.Sprintf("%d", c.Iterations),
			driftPct(float64(o.Iterations), float64(c.Iterations)),
			driftPct(o.FinalValue, c.FinalValue),
			driftPct(o.TotalJoules, c.TotalJoules),
			fmt.Sprintf("%d→%d", o.MaxStaleness, c.MaxStaleness),
		})
	}
	dropped := make([]string, 0, len(byLabel))
	for label := range byLabel {
		dropped = append(dropped, label)
	}
	sort.Strings(dropped)
	same = same && len(dropped) == 0
	for _, label := range dropped {
		rows = append(rows, []string{label, fmt.Sprintf("%d", byLabel[label].Iterations),
			"-", "dropped", "dropped", "dropped", "-"})
	}
	b.WriteString(metrics.FormatTable(
		[]string{"system", "iters (base)", "iters (now)", "Δiters", "Δfinal", "Δjoules", "staleness"},
		rows,
	))
	critDrift(&b, base, cur)
	return b.String(), same
}

// critDrift appends the critical-path comm/stall split per system, with the
// baseline's split alongside when its snapshot carried one (older snapshots
// predate the analyzer and render as "-").
func critDrift(b *strings.Builder, base, cur *Report) {
	byLabel := make(map[string]*SystemReport, len(base.Systems))
	for i := range base.Systems {
		byLabel[base.Systems[i].Label] = &base.Systems[i]
	}
	wrote := false
	for i := range cur.Systems {
		c := &cur.Systems[i]
		if c.CritPath == nil {
			continue
		}
		if !wrote {
			fmt.Fprintf(b, "\ncritical path (comm/stall split, seconds summed over workers):\n")
			wrote = true
		}
		_, comm, stall, _ := c.CritPath.Totals()
		baseline := "-"
		if o, ok := byLabel[c.Label]; ok && o.CritPath != nil {
			_, bc, bs, _ := o.CritPath.Totals()
			baseline = fmt.Sprintf("comm %.1f stall %.1f", bc, bs)
		}
		top := ""
		if len(c.CritPath.Blockers) > 0 {
			blk := c.CritPath.Blockers[0]
			top = fmt.Sprintf("; top blocker worker %d unit %d (%.1fs)", blk.Worker, blk.Unit, blk.StallSeconds)
		}
		fmt.Fprintf(b, "  %-8s comm %.1f stall %.1f (base: %s)%s\n", c.Label, comm, stall, baseline, top)
	}
}
