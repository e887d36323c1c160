// Command perfbench is the repository's benchmark. It drives the
// pipeline's public packages from outside, in one process, on one of
// three seeded workloads:
//
//   - optimize-panel: parse and verified-optimize a panel of paper
//     kernels (lang, transform, verify, analysis, the interpreter);
//   - measure-sweep: balance measurements over a log-spaced size sweep
//     on two machines (the compiled engine and the cache simulator);
//   - serve-mixed: an in-process bwserved answering a seeded mix of
//     analyze and optimize requests from two closed-loop clients.
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// reports the per-layer ledger from a separate traced phase. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 64, "failed": 0, "metrics": {...}}
//
// See README.md for every metric's definition.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRuns is how many times a run builds its workload state; setup_s
// is the median, and the last build is the one measured.
const setupRuns = 5

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// workload is one seeded input set and the system state it drives.
type workload interface {
	// setup builds the inputs from the seed and prepares the system;
	// it may be called several times, each call replacing the last.
	setup(ctx context.Context, seed uint64) error
	// measure runs ops in a closed loop until d has elapsed, finishing
	// the unit of work in progress (a whole panel or sweep), and
	// records each op in rec. With traced set, every op runs under a
	// tracer and its span tree goes into rec's ledger.
	measure(ctx context.Context, d time.Duration, traced bool, rec *recorder) error
	// check completes the output checks measure deferred, failing the
	// ops whose output is wrong.
	check(ctx context.Context, rec *recorder) error
	// finish adds the deterministic end-to-end metrics, computed
	// outside the timed loop.
	finish(ctx context.Context, m metrics) error
	// probe adds the per-layer metrics that come from direct calls
	// outside the timed ops, after the traced phase.
	probe(ctx context.Context, m metrics) error
	// tailPercentile is the percentile op_tail_ms reports.
	tailPercentile() float64
	close()
}

// reporter is a workload with lines of its own for the human-readable
// output.
type reporter interface {
	report(w io.Writer)
}

var workloads = map[string]func() workload{
	"optimize-panel": func() workload { return &panelWorkload{} },
	"measure-sweep":  func() workload { return &sweepWorkload{} },
	"serve-mixed":    func() workload { return &serveWorkload{} },
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "optimize-panel, measure-sweep or serve-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the measured loop runs")
	flag.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics, 1 the per-layer ledger")
	writeExpected := flag.String("write-expected", "", "rewrite the measure-sweep expected statistics to this file and exit")
	flag.Parse()

	if *writeExpected != "" {
		if err := writeSweepExpected(context.Background(), *writeExpected); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the run's final JSON line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// run executes one benchmark run and returns its result. Progress and
// a human-readable table go to w.
func run(ctx context.Context, o options, w io.Writer) (*result, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want optimize-panel, measure-sweep or serve-mixed)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	wl := mk()
	defer wl.close()

	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		begin := time.Now()
		if err := wl.setup(ctx, o.seed); err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	d := time.Duration(o.seconds * float64(time.Second))
	m := metrics{}
	var rec *recorder
	var err error
	if o.trace {
		rec, err = tracedRun(ctx, wl, o.seed, d, m, w)
	} else {
		rec, err = plainRun(ctx, wl, d, m)
	}
	if err != nil {
		return nil, err
	}
	if err := wl.check(ctx, rec); err != nil {
		return nil, fmt.Errorf("%s output check: %w", o.workload, err)
	}
	n := float64(rec.ops())
	if o.trace {
		m.set("failed_frac", float64(rec.failed)/n)
		m.set("degraded_frac", float64(rec.degraded)/n)
	} else {
		p := wl.tailPercentile()
		m.set("setup_s", median(setups))
		m.set("op_tail_ms", nearestRank(rec.lat, p))
		if beyond := n * (1 - p/100); beyond < 10 {
			fmt.Fprintf(w, "warning: op_tail_ms has only %.0f samples beyond it\n", beyond)
		}
		fmt.Fprintf(w, "%s: %d ops in %.2fs; op_tail_ms is their p%g\n", o.workload, rec.ops(), rec.wall.Seconds(), p)
	}
	if r, ok := wl.(reporter); ok {
		r.report(w)
	}
	rec.printFailures(w)
	m.print(w, o.trace)
	return &result{
		Correct:   rec.failed == 0,
		Attempted: rec.ops(),
		Failed:    rec.failed,
		Metrics:   m.selected(o.trace),
	}, nil
}

// plainRun is the untraced run behind the end-to-end metrics.
func plainRun(ctx context.Context, wl workload, d time.Duration, m metrics) (*recorder, error) {
	rec := newRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := wl.measure(ctx, d, false, rec); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	n := float64(rec.ops())
	m.set("ops_per_s", rec.throughput())
	m.set("op_p50_ms", rec.medianMS())
	m.set("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1e6/n)
	if err := wl.finish(ctx, m); err != nil {
		return nil, err
	}
	return rec, nil
}

// tracedRun measures the workload untraced and then traced for half
// of d each, so trace.overhead_x compares like with like, and builds
// the per-layer metrics from the traced half and the probes. The
// returned recorder holds the ops of both halves.
func tracedRun(ctx context.Context, wl workload, seed uint64, d time.Duration, m metrics, w io.Writer) (*recorder, error) {
	plain := newRecorder()
	if err := wl.measure(ctx, d/2, false, plain); err != nil {
		return nil, err
	}
	// Each half starts from a fresh set-up, so a stateful workload
	// (the service's cache) sees the same requests in the same state.
	if err := wl.setup(ctx, seed); err != nil {
		return nil, err
	}
	rec := newRecorder()
	rec.ledger = newLedger()
	if err := wl.measure(ctx, d/2, true, rec); err != nil {
		return nil, err
	}
	rec.ledger.metrics(m)
	rec.ledger.print(w)
	if err := wl.probe(ctx, m); err != nil {
		return nil, err
	}
	if err := fixedProbe(ctx, m); err != nil {
		return nil, err
	}
	m.set("trace.overhead_x", plain.throughput()/rec.throughput())
	rec.merge(plain)
	return rec, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the p-th percentile of xs by the nearest-rank
// definition: the smallest sample with at least p% of the samples at
// or below it.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(float64(len(s))*p/100)) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}
