package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/verify"
)

// panelKernels is the optimize-panel: the paper's kernels at the sizes
// the repository already uses for them (BENCH's quick config for conv,
// dmxpy and matmul; bwserved's defaults for the rest).
var panelKernels = []struct {
	name  string
	build func() *ir.Program
}{
	{"fig7", func() *ir.Program { return kernels.Fig7Original(100_000) }},
	{"fig6a", func() *ir.Program { return kernels.Fig6Original(64) }},
	{"sec21", func() *ir.Program { return kernels.Sec21Pair(100_000) }},
	{"conv", func() *ir.Program { return kernels.Convolution(20_000) }},
	{"dmxpy", func() *ir.Program { return kernels.Dmxpy(112) }},
	{"matmul", func() *ir.Program { return kernels.MatmulJKI(128) }},
	{"sp", func() *ir.Program { return kernels.SP(16) }},
	{"sweep3d", func() *ir.Program { return kernels.Sweep3D(32, 6) }},
}

// panelConfig is what `bwopt -verify differential` runs: the default
// pipeline with differential verification of every checkpoint.
var panelConfig = transform.Config{Options: transform.All(), Verify: verify.ModeDifferential}

// panelWorkload parses and optimizes one panel program per op, in a
// seeded order, single-threaded. Each measured loop runs whole panels,
// so every run sees the same multiset of ops.
type panelWorkload struct {
	names []string          // panel order for this seed
	src   map[string]string // printed source, the ops' input
	// outputs counts, per program, the ops that produced each
	// optimized text; check verifies each distinct text once.
	outputs map[string]map[string]int
	// latency holds every op's latency in ms, per program.
	latency map[string][]float64
	traced  outcomeStats
}

// outcomeStats accumulates the pass and analysis-cache figures that
// transform.Outcome reports for traced optimizations.
type outcomeStats struct {
	ops             int
	passSeconds     map[string]float64
	analysisSeconds float64
	hits, requests  uint64
}

func (s *outcomeStats) add(out *transform.Outcome) {
	if s.passSeconds == nil {
		s.passSeconds = map[string]float64{}
	}
	s.ops++
	for _, ps := range out.Passes {
		s.passSeconds[ps.Pass] += ps.Seconds
	}
	tot := out.Analysis.Total()
	s.analysisSeconds += tot.Seconds
	s.hits += tot.Hits
	s.requests += tot.Requests
}

// metrics sets the per-pass seconds and analysis figures per op.
func (s *outcomeStats) metrics(m metrics) {
	if s.ops == 0 {
		return
	}
	n := float64(s.ops)
	for _, pass := range []string{"fuse", "reduce-storage", "store-elim"} {
		m.set("transform.pass."+pass+"_s", s.passSeconds[pass]/n)
	}
	m.set("analysis.s", s.analysisSeconds/n)
	if s.requests > 0 {
		m.set("analysis.hit_frac", float64(s.hits)/float64(s.requests))
	}
}

func (w *panelWorkload) tailPercentile() float64 { return 89 }

func (w *panelWorkload) setup(ctx context.Context, seed uint64) error {
	w.src = map[string]string{}
	w.names = w.names[:0]
	for _, k := range panelKernels {
		src := k.build().String()
		w.src[k.name] = src
		w.names = append(w.names, k.name)
		// Warm-up: one op of every program but matmul, whose two-second
		// op would dominate set-up.
		if k.name == "matmul" {
			continue
		}
		if _, _, err := parseAndOptimize(ctx, src); err != nil {
			return fmt.Errorf("warm-up %s: %w", k.name, err)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x0b71))
	rng.Shuffle(len(w.names), func(i, j int) { w.names[i], w.names[j] = w.names[j], w.names[i] })
	if w.outputs == nil {
		w.outputs = map[string]map[string]int{}
		w.latency = map[string][]float64{}
	}
	return nil
}

func (w *panelWorkload) measure(ctx context.Context, d time.Duration, traced bool, rec *recorder) error {
	for time.Since(rec.start) < d || rec.ops() == 0 {
		for _, name := range w.names {
			w.op(ctx, name, traced, rec)
		}
	}
	rec.wall = time.Since(rec.start)
	return nil
}

// op parses and optimizes one panel program.
func (w *panelWorkload) op(ctx context.Context, name string, traced bool, rec *recorder) {
	if traced {
		tr := trace.New()
		root := tr.Start(nil, opSpan, trace.String("program", name))
		ctx = trace.NewContext(ctx, root)
		defer func() {
			root.End()
			rec.ledger.add(tr.Tree()[0])
		}()
	}
	begin := time.Now()
	q, out, err := parseAndOptimize(ctx, w.src[name])
	elapsed := time.Since(begin)
	rec.op(name, elapsed, err)
	if err != nil {
		return
	}
	w.latency[name] = append(w.latency[name], float64(elapsed.Nanoseconds())/1e6)
	text := q.String()
	if w.outputs[name] == nil {
		w.outputs[name] = map[string]int{}
	}
	w.outputs[name][text]++
	if traced {
		w.traced.add(out)
	}
}

// parseAndOptimize is one optimize-panel op, each public call under a
// span of the benchmark's own.
func parseAndOptimize(ctx context.Context, src string) (*ir.Program, *transform.Outcome, error) {
	_, span := trace.StartSpan(ctx, "lang.Parse", trace.Int("bytes", int64(len(src))))
	p, err := lang.Parse(src)
	span.End()
	if err != nil {
		return nil, nil, err
	}
	octx, span := trace.StartSpan(ctx, "transform.OptimizeVerifiedCtx")
	q, out, err := transform.OptimizeVerifiedCtx(octx, p, panelConfig)
	span.End()
	return q, out, err
}

// check compares every distinct optimized program's result with the
// original's under the tree-walking interpreter, the independent
// reference. A mismatch fails every op that produced that text.
func (w *panelWorkload) check(ctx context.Context, rec *recorder) error {
	for _, name := range sortedKeys(w.outputs) {
		orig, err := lang.Parse(w.src[name])
		if err != nil {
			return err
		}
		ref, err := exec.RunCtx(ctx, orig, nil, exec.Limits{})
		if err != nil {
			return fmt.Errorf("%s: reference run: %w", name, err)
		}
		for text, n := range w.outputs[name] {
			if err := sameResult(ctx, ref, text); err != nil {
				for i := 0; i < n; i++ {
					rec.fail(fmt.Errorf("%s: optimized program: %w", name, err))
				}
			}
		}
	}
	return nil
}

func sameResult(ctx context.Context, ref *exec.Result, text string) error {
	q, err := lang.Parse(text)
	if err != nil {
		return fmt.Errorf("does not re-parse: %w", err)
	}
	got, err := exec.RunCtx(ctx, q, nil, exec.Limits{})
	if err != nil {
		return err
	}
	return verify.CompareResults(ref, got, verify.DefaultTol)
}

// finish reports the optimized panel's slow-memory traffic on
// Origin2000, the paper's objective, and the geometric mean of its
// measured/bound gaps. Both are deterministic.
func (w *panelWorkload) finish(ctx context.Context, m metrics) error {
	spec := machine.Origin2000()
	var memBytes int64
	var gaps []float64
	for _, name := range sortedKeys(w.outputs) {
		q, err := lang.Parse(mostCommon(w.outputs[name]))
		if err != nil {
			return err
		}
		mem, gap, err := measureGap(ctx, q, spec)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		memBytes += mem
		gaps = append(gaps, gap)
	}
	m.set("sim_mem_bytes", float64(memBytes))
	m.set("opt_gap_geomean", geomean(gaps))
	return nil
}

// probe adds the per-pass and analysis-cache figures of the traced ops,
// taken from transform.Outcome.
func (w *panelWorkload) probe(_ context.Context, m metrics) error {
	w.traced.metrics(m)
	return nil
}

// report prints each program's median op latency; the matmul line is
// comparable with perfwatch's median_optimize_ns for mm-jki.
func (w *panelWorkload) report(out io.Writer) {
	for _, name := range sortedKeys(w.latency) {
		fmt.Fprintf(out, "  %-8s median op %10.3f ms over %d ops\n", name, median(w.latency[name]), len(w.latency[name]))
	}
}

func (w *panelWorkload) close() {}
