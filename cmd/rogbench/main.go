// Command rogbench reruns the paper's experiments and prints the tables
// and series each figure plots.
//
// Usage:
//
//	rogbench -list
//	rogbench -exp fig1            # quick scale (~1/9 duration)
//	rogbench -exp fig7 -full      # paper scale (60 virtual minutes)
//	rogbench -all                 # every experiment, quick scale
//	rogbench -exp fig1 -json BENCH_fig1.json   # machine-readable report
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rog"
	"rog/internal/harness"
	"rog/internal/trace"
)

func main() {
	jsonIDs := strings.Join(harness.JSONExperimentIDs(), ", ")
	var (
		exp   = flag.String("exp", "", "experiment id to run (see -list)")
		all   = flag.Bool("all", false, "run every experiment")
		full  = flag.Bool("full", false, "run at paper scale (60 virtual minutes per system)")
		list  = flag.Bool("list", false, "list available experiments")
		seeds = flag.Int("seeds", 1, "replicate fig1/fig6/fig7 across N seeds and report mean±std")
		jsonP = flag.String("json", "", "write a machine-readable report of -exp ("+jsonIDs+") to this file")
		drift = flag.String("drift", "", "rerun the experiment recorded in this BENCH_*.json snapshot and report drift against it (exits 1 on any drift)")
	)
	flag.Parse()

	// Refuse stray positional arguments (a mistyped flag would otherwise
	// run the default experiment set with its value silently dropped).
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rogbench: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "rogbench: -seeds must be >= 1, got %d\n", *seeds)
		os.Exit(2)
	}

	scale := rog.QuickScale
	if *full {
		scale = rog.FullScale
	}

	switch {
	case *list:
		for _, e := range rog.Experiments() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
	case *drift != "":
		runDrift(*drift)
	case *jsonP != "":
		if *exp == "" {
			fmt.Fprintf(os.Stderr, "rogbench: -json needs -exp (%s)\n", jsonIDs)
			os.Exit(2)
		}
		writeJSON(*exp, scale, *jsonP)
	case *seeds > 1:
		runSeeds(*exp, scale, *seeds)
	case *all:
		for _, e := range rog.Experiments() {
			runOne(e.ID, scale)
		}
	case *exp != "":
		runOne(*exp, scale)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runSeeds replicates one of the end-to-end figures across seeds.
func runSeeds(exp string, scale rog.ExperimentScale, n int) {
	opts := harness.EndToEndOptions{Scale: scale}
	switch exp {
	case "fig1":
		opts.Paradigm, opts.Env = "cruda", trace.Outdoor
	case "fig6":
		opts.Paradigm, opts.Env = "cruda", trace.Indoor
	case "fig7":
		opts.Paradigm, opts.Env = "crimp", trace.Outdoor
	default:
		fmt.Fprintf(os.Stderr, "rogbench: -seeds works with fig1, fig6 or fig7 (got %q)\n", exp)
		os.Exit(2)
	}
	seedList := make([]uint64, n)
	for i := range seedList {
		seedList[i] = uint64(i + 1)
	}
	start := time.Now()
	sums, err := harness.RunEndToEndSeeds(opts, seedList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rogbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("== %s across %d seeds (scale=%s) ==\n\n", exp, n, scale.Name)
	fmt.Println(harness.SeedSummaryTable(sums))
	fmt.Printf("[completed in %.1fs wall clock]\n", time.Since(start).Seconds())
}

// runDrift reruns the experiment a BENCH_*.json snapshot recorded, at the
// snapshot's own scale, and prints what moved. The snapshots are behaviour
// goldens, so drift is a gate: the command exits 1 when any system's row
// differs from the snapshot (a Δ cell other than "=", a staleness change,
// a new or dropped system) and when the snapshot cannot be read or the
// experiment cannot run.
func runDrift(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rogbench: %v\n", err)
		os.Exit(1)
	}
	base, err := harness.ReadJSONReport(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rogbench: %v\n", err)
		os.Exit(1)
	}
	scale := rog.QuickScale
	if base.Scale == rog.FullScale.Name {
		scale = rog.FullScale
	}
	start := time.Now()
	cur, err := harness.RunJSONReport(base.Experiment, scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rogbench: %v\n", err)
		os.Exit(1)
	}
	table, same := harness.DriftTable(base, cur)
	fmt.Println(table)
	fmt.Printf("[drift vs %s computed in %.1fs wall clock]\n", path, time.Since(start).Seconds())
	if !same {
		fmt.Fprintf(os.Stderr, "rogbench: %s drifted from its snapshot\n", path)
		os.Exit(1)
	}
}

// writeJSON runs one experiment and writes its machine-readable report.
func writeJSON(id string, scale rog.ExperimentScale, path string) {
	start := time.Now()
	rep, err := harness.RunJSONReport(id, scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rogbench: %v\n", err)
		os.Exit(2)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rogbench: %v\n", err)
		os.Exit(1)
	}
	if err := rep.WriteJSON(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rogbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s report written to %s (%d systems, scale=%s, %.1fs wall clock)\n",
		id, path, len(rep.Systems), scale.Name, time.Since(start).Seconds())
}

func runOne(id string, scale rog.ExperimentScale) {
	start := time.Now()
	out, err := rog.RunExperiment(id, scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rogbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(out)
	fmt.Printf("[%s completed in %.1fs wall clock, scale=%s]\n\n", id, time.Since(start).Seconds(), scale.Name)
}
