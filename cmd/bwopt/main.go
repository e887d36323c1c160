// Command bwopt applies compiler transformations to a loop-nest
// program, printing the transformed program, the actions taken, and the
// before/after bandwidth report.
//
// Usage:
//
//	bwopt [-machine origin|exemplar] [-scale N] \
//	      [-verify off|structural|differential] [-tol T] \
//	      [-passes spec[,spec...]] [-profile] [-mrc] [-json] \
//	      [-trace out.json] program.bw
//
// With -mrc, both measurements additionally run a one-pass
// reuse-distance (Mattson stack-distance) analysis: an ASCII
// before/after overlay of the memory-channel demand curve, the
// capacity knee against the measured machine's balance (showing how
// far the optimizer shifted it left), and the phase timeline.
// Under -json the same data appears as "mrc" blocks on both
// measurements.
//
// With -profile, both measurements run with traffic attribution: the
// bandwidth report is followed by a per-array, per-level traffic table
// (with each array's compulsory floor and optimality gap), the
// optimized program annotated with the memory bytes each reference
// moved, and a per-pass delta table attributing the savings of every
// committed pass to the arrays it touched. Under -json the same data
// appears as "profile" blocks on both measurements and a "pass_deltas"
// array.
//
// With -trace, the whole run is traced — one span per pass attempt,
// per analysis compute, per verification phase and per simulated
// execution — and written as Chrome trace-event JSON loadable in
// chrome://tracing or https://ui.perfetto.dev.
//
// With -verify, the optimizer runs as a checkpointed pipeline: each
// pass is verified (structurally, or also differentially against the
// original program's observable results) before acceptance; a failing
// or panicking pass is rolled back and skipped, and a verification
// report is printed.
//
// Without -passes, the paper's full strategy runs (fuse → storage
// reduction → store elimination). With -passes, the named passes from
// the transform registry run in order instead, and any pass that fails
// is a fatal error rather than a recorded skip (an explicit pipeline
// is a request, not a strategy to degrade). Each spec is one of:
//
//	pipeline                      the full strategy
//	fuse                          bandwidth-minimal loop fusion
//	reduce-storage                array contraction + shrinking (alias: shrink)
//	store-elim                    dead writeback elimination (alias: storeelim)
//	interchange:<nest>:<var>      swap <var>'s loop with its inner loop
//	distribute:<nest>             split the nest's loop by dependence
//	peel-first:<nest>:<var>       peel the first iteration (alias: peel)
//	peel-last:<nest>:<var>        peel the last iteration
//	simplify                      fold statically decidable guards
//	unrolljam:<nest>:<var>:<k>    unroll-and-jam by factor k
//	scalarize:<nest>              register-promote repeated elements
//	regroup:<a>+<b>[+...]         interleave the named arrays
//
// The registry (internal/transform.Passes) is the source of truth; the
// same specs drive bwsim -passes and the bwserved "pipeline" request
// field.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/balance"
	"repro/internal/bounds"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/verify"
)

// jsonMeasurement is one side of the -json before/after report.
type jsonMeasurement struct {
	MemoryBytes   int64            `json:"memory_bytes"`
	PredictedSec  float64          `json:"predicted_sec"`
	EffectiveBW   float64          `json:"effective_bw"`
	Bound         *bounds.Analysis `json:"bounds,omitempty"`
	OptimalityGap float64          `json:"optimality_gap,omitempty"`
	// Profile is the per-array traffic attribution (-profile only). The
	// arrays' memory_bytes sum exactly to MemoryBytes.
	Profile *balance.ProfileSummary `json:"profile,omitempty"`
	// MRC is the one-pass reuse-distance analysis (-mrc only): exact
	// miss-ratio curves per level, phase timeline, and capacity knees
	// against every registered machine.
	MRC *balance.MRCResult `json:"mrc,omitempty"`
}

// jsonReport is the -json document: the optimized program, actions and
// both measurements with their lower bounds and optimality gaps.
type jsonReport struct {
	Program string          `json:"program"`
	Machine string          `json:"machine"`
	Actions []string        `json:"actions"`
	Before  jsonMeasurement `json:"before"`
	After   jsonMeasurement `json:"after"`
	Speedup float64         `json:"speedup"`
	// PassDeltas attributes the traffic change to the committed passes,
	// array by array (-profile only).
	PassDeltas []balance.PassDelta `json:"pass_deltas,omitempty"`
}

func main() {
	machineName := flag.String("machine", "", "machine model (default Origin2000; see -list-machines)")
	listMachines := flag.Bool("list-machines", false, "list registered machine models and exit")
	scale := flag.Int("scale", 1, "divide cache capacities by this factor")
	passes := flag.String("passes", "", "comma-separated pass specs (see doc comment); overrides the default pipeline")
	verifyMode := flag.String("verify", "off", "per-pass verification: off, structural or differential")
	tol := flag.Float64("tol", verify.DefaultTol, "relative tolerance for differential verification")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file of the whole run to this path")
	jsonOut := flag.Bool("json", false, "emit the bandwidth report (with lower bounds and optimality gaps) as JSON")
	profile := flag.Bool("profile", false, "attribute traffic per array and per pass: annotated listing, per-array table, pass deltas")
	mrcFlag := flag.Bool("mrc", false, "one-pass reuse-distance analysis: miss-ratio curves (before/after overlay), capacity knees, phase timeline")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bwopt [flags] program.bw\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nregistered passes:\n")
		for _, pi := range transform.Passes() {
			fmt.Fprintf(os.Stderr, "  %-28s %s\n", pi.Usage, pi.Help)
		}
	}
	flag.Parse()
	if *listMachines {
		fmt.Print(machine.FormatList(machine.Default))
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	p, err := lang.Parse(string(src))
	if err != nil {
		fatal(err)
	}

	mode, err := verify.ParseMode(*verifyMode)
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	var tr *trace.Tracer
	var root *trace.Span
	if *traceOut != "" {
		tr = trace.New()
		root = tr.Start(nil, "bwopt", trace.String("input", flag.Arg(0)))
		ctx = trace.NewContext(ctx, root)
	}

	pipeline := *passes
	if pipeline == "" {
		pipeline = transform.DefaultPipelineSpec
	}
	q, outcome, err := transform.OptimizeVerifiedCtx(ctx, p, transform.Config{
		Pipeline: pipeline, Verify: mode, Tol: *tol,
	})
	if err == nil && *passes != "" && len(outcome.Skipped) > 0 {
		// Strict mode for explicit pipelines: the user asked for these
		// passes specifically, so a rolled-back step is an error.
		err = outcome.Skipped[0]
	}
	if err != nil {
		fatal(err)
	}
	actions := outcome.Actions

	if !*jsonOut {
		fmt.Println("--- optimized program ---")
		fmt.Println(q)
		fmt.Println("--- actions ---")
		if len(actions) == 0 {
			fmt.Println("(none applied)")
		}
		for _, a := range actions {
			fmt.Println(" ", a)
		}

		if mode != verify.ModeOff {
			fmt.Print(report.Degradation(outcome.Mode.String(), outcome.Checkpoints, outcome.SkippedReport(), outcome.Notes))
		}
	}

	spec, err := machine.Resolve(*machineName, *scale)
	if err != nil {
		fatal(err)
	}

	// One run per program attaches the lower bound and whichever of
	// attribution and the reuse-distance analysis was asked for. The
	// optimized program must observe what the original did, within the
	// verification tolerance; anything beyond it is a miscompile.
	opts := balance.Options{Bounds: true, Profile: *profile, MRC: *mrcFlag}
	pair, err := balance.MeasurePair(ctx, p, q, outcome.Snapshots, []machine.Spec{spec}, opts, *tol)
	if err != nil {
		fatal(err)
	}
	before, after, deltas := pair.Before[0], pair.After[0], pair.Deltas
	if tr != nil {
		root.End()
		if err := writeTrace(tr, *traceOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bwopt: wrote %d spans to %s\n", tr.Len(), *traceOut)
	}
	if *jsonOut {
		doc := jsonReport{
			Program: p.Name,
			Machine: spec.Name,
			Actions: []string{},
			Before:  measurement(before),
			After:   measurement(after),
			Speedup: balance.Speedup(before, after),

			PassDeltas: deltas,
		}
		for _, a := range actions {
			doc.Actions = append(doc.Actions, fmt.Sprint(a))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&doc); err != nil {
			fatal(err)
		}
	} else {
		fmt.Println("--- bandwidth report ---")
		t := &report.Table{Headers: []string{"", "mem traffic", "predicted time", "effective bw", "lower bound", "gap"}}
		t.AddRow("before", report.Bytes(before.MemoryBytes), report.Seconds(before.Time.Total),
			report.MBs(before.EffectiveBW), boundCell(before), report.Gap(before.OptimalityGap))
		t.AddRow("after", report.Bytes(after.MemoryBytes), report.Seconds(after.Time.Total),
			report.MBs(after.EffectiveBW), boundCell(after), report.Gap(after.OptimalityGap))
		t.AddNote("predicted speedup %.2fx on %s", balance.Speedup(before, after), spec.Name)
		if after.Bound != nil && after.Bound.Best.Bytes > 0 {
			t.AddNote("lower bound: %s; gap 1.00x would be provably minimal traffic", after.Bound.Best.Kind)
		}
		fmt.Print(t)
		if *profile && after.Attribution != nil {
			fmt.Println("--- traffic attribution (after) ---")
			fmt.Print(report.ArrayTraffic(after.Attribution.LevelNames, after.Attribution.TrafficRows()))
			fmt.Println("--- annotated program (after) ---")
			fmt.Print(after.Attribution.AnnotatedListing())
			fmt.Println("--- pass deltas ---")
			fmt.Print(report.PassDeltas(balance.DeltaRows(deltas)))
		}
		if *mrcFlag && before.MRC != nil {
			fmt.Println("--- miss-ratio curves ---")
			fmt.Print(balance.MRCText(before.MRC, after.MRC))
		}
	}
}

// measurement projects a balance report onto the -json measurement
// shape, bound and gap included.
func measurement(r *balance.Report) jsonMeasurement {
	return jsonMeasurement{
		MemoryBytes:   r.MemoryBytes,
		PredictedSec:  r.Time.Total,
		EffectiveBW:   r.EffectiveBW,
		Bound:         r.Bound,
		OptimalityGap: r.OptimalityGap,
		Profile:       r.Attribution.Summary(),
		MRC:           r.MRC,
	}
}

// boundCell renders the lower-bound column of the text table.
func boundCell(r *balance.Report) string {
	if r.Bound == nil || r.Bound.Best.Bytes <= 0 {
		return "n/a"
	}
	return report.Bytes(r.Bound.Best.Bytes)
}

func writeTrace(tr *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bwopt:", err)
	os.Exit(1)
}
