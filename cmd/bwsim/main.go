// Command bwsim runs a loop-nest program on a simulated machine and
// prints its memory-hierarchy event counts and balance report.
//
// Usage:
//
//	bwsim [-machine origin|exemplar] [-scale N] [-print-ir] \
//	      [-verify off|structural] [-passes spec[,spec...]] \
//	      [-profile] [-mrc] [-trace out.json] program.bw
//
// With -profile, the measurement runs with traffic attribution: the
// balance report is followed by a per-array, per-level traffic table
// (with compulsory floors and per-array optimality gaps) and the
// program annotated with the memory bytes each reference moved.
//
// With -mrc, the measurement additionally runs a one-pass
// reuse-distance (Mattson stack-distance) analysis and prints the
// ASCII miss-ratio curve of the memory-facing cache level, the
// capacity knee against the measured machine's balance, and the phase
// timeline of the access stream.
//
// With -trace, the run (optional pass pipeline + measurement) is
// traced and written as Chrome trace-event JSON loadable in
// chrome://tracing or Perfetto.
//
// With -verify structural, the parsed program is checked by the deep IR
// verifier (static bounds and shape consistency beyond the parser's
// validation) before any measurement runs. Differential verification
// needs a transformed/original pair; without -passes it therefore lives
// in bwopt, but with -passes bwsim has such a pair (the parsed program
// and its transformed result) and verifies each checkpoint against the
// original's observable output.
//
// With -passes, the named passes from the transform registry (the same
// specs bwopt accepts: "pipeline", "fuse", "reduce-storage",
// "interchange:<nest>:<var>", ...) run before measurement, so one
// command answers "what would this pipeline do to my program's
// bandwidth?". A pass that fails is a fatal error. The original program
// is measured as well, and a transformed program whose prints differ
// from the original's is refused (exit 1, naming the divergence).
//
// The input file uses the language documented in internal/lang (see
// also the examples/ directory). The balance report lists per-channel
// traffic, program vs machine balance, demand/supply ratios, the CPU-
// utilization bound, the predicted bottleneck time and the effective
// memory bandwidth — the paper's Section 2 methodology applied to an
// arbitrary program.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/balance"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/verify"
)

func main() {
	machineName := flag.String("machine", "", "machine model (default Origin2000; see -list-machines)")
	listMachines := flag.Bool("list-machines", false, "list registered machine models and exit")
	scale := flag.Int("scale", 1, "divide cache capacities by this factor")
	printIR := flag.Bool("print-ir", false, "echo the parsed program before the report")
	verifyMode := flag.String("verify", "off", "pre-run verification: off or structural (differential allowed with -passes)")
	passes := flag.String("passes", "", "comma-separated pass specs to apply before measuring (same registry as bwopt)")
	profile := flag.Bool("profile", false, "attribute traffic per array: per-array table and annotated listing")
	mrcFlag := flag.Bool("mrc", false, "one-pass reuse-distance analysis: miss-ratio curve, capacity knees, phase timeline")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file of the run to this path")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bwsim [flags] program.bw\n")
		flag.PrintDefaults()
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
	if mode >= verify.ModeDifferential && *passes == "" {
		fatal(fmt.Errorf("differential verification compares two programs; use -passes here or bwopt -verify differential"))
	}
	if mode >= verify.ModeStructural {
		if err := verify.Structural(p); err != nil {
			fatal(err)
		}
	}

	ctx := context.Background()
	var tr *trace.Tracer
	var root *trace.Span
	if *traceOut != "" {
		tr = trace.New()
		root = tr.Start(nil, "bwsim", trace.String("input", flag.Arg(0)))
		ctx = trace.NewContext(ctx, root)
	}

	var orig *ir.Program
	if *passes != "" {
		q, outcome, err := transform.OptimizeVerifiedCtx(ctx, p, transform.Config{Pipeline: *passes, Verify: mode})
		if err == nil && len(outcome.Skipped) > 0 {
			err = outcome.Skipped[0]
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println("--- passes applied ---")
		if len(outcome.Actions) == 0 {
			fmt.Println("(none applied)")
		}
		for _, a := range outcome.Actions {
			fmt.Println(" ", a)
		}
		orig, p = p, q
	}

	spec, err := machine.Resolve(*machineName, *scale)
	if err != nil {
		fatal(err)
	}

	if *printIR {
		fmt.Println(p)
	}
	// The report's last line is the data-movement lower bound and
	// optimality gap; attribution and the reuse-distance analysis ride
	// on the same run when asked for. With -passes the original is
	// measured too, and the transformed program must print what it did.
	specs := []machine.Spec{spec}
	opts := balance.Options{Bounds: true, Profile: *profile, MRC: *mrcFlag}
	var reps []*balance.Report
	if orig != nil {
		var pair *balance.Pair
		if pair, err = balance.MeasurePair(ctx, orig, p, nil, specs, opts, verify.DefaultTol); err == nil {
			reps = pair.After
		}
	} else {
		reps, err = balance.Measure(ctx, p, specs, opts)
	}
	if err != nil {
		fatal(err)
	}
	rep := reps[0]
	if tr != nil {
		root.End()
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bwsim: wrote %d spans to %s\n", tr.Len(), *traceOut)
	}
	fmt.Print(rep)
	if rep.Attribution != nil {
		fmt.Println("--- traffic attribution ---")
		fmt.Print(report.ArrayTraffic(rep.Attribution.LevelNames, rep.Attribution.TrafficRows()))
		fmt.Println("--- annotated program ---")
		fmt.Print(rep.Attribution.AnnotatedListing())
	}
	if rep.MRC != nil {
		fmt.Println("--- miss-ratio curve ---")
		fmt.Print(balance.MRCText(rep.MRC, nil))
	}
	for i, v := range rep.Result.Prints {
		fmt.Printf("print[%d] = %g\n", i, v)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bwsim:", err)
	os.Exit(1)
}
