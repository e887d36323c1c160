package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"time"

	"repro/internal/balance"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/verify"
)

// sweepKernels are the measured programs: one-dimensional kernels whose
// footprint, two arrays of n doubles, grows linearly with n.
var sweepKernels = []struct {
	name  string
	build func(n int) *ir.Program
}{
	{"fig7", kernels.Fig7Original},
	{"conv", kernels.Convolution},
}

// sweepMachines pairs each machine with its log-spaced sizes: from a
// 16 KB footprint, inside every L1, doubling up to at least four times
// the last-level cache (Origin2000's L2 is 4 MB, SkylakeSP's L3 1.4 MB).
var sweepMachines = []struct {
	spec       func() machine.Spec
	minN, maxN int
}{
	{machine.Origin2000, 1 << 10, 1 << 20},
	{machine.SkylakeSP, 1 << 10, 1 << 19},
}

//go:embed testdata/sweep_stats.json
var sweepExpectedJSON []byte

// sweepEntry is one (program, machine) pair of the sweep.
type sweepEntry struct {
	key     string // kernel/variant/machine/n, the expected-statistics key
	program string // kernel/variant, the ledger's program attribute
	n       int
	prog    *ir.Program
	spec    machine.Spec
}

// sweepWarmupN is the largest size set-up measures once as warm-up.
const sweepWarmupN = 1 << 14

// sweepWorkload measures every sweep entry once per sweep, in a seeded
// order, single-threaded. Each measured loop runs whole sweeps.
type sweepWorkload struct {
	entries  []sweepEntry
	expected map[string][]sim.Stats
}

func (w *sweepWorkload) tailPercentile() float64 { return 98 }

// buildSweep instantiates every kernel at every size, original and
// optimized, on every machine, in key order.
func buildSweep(ctx context.Context) ([]sweepEntry, error) {
	var out []sweepEntry
	for _, k := range sweepKernels {
		for _, mc := range sweepMachines {
			spec := mc.spec()
			for n := mc.minN; n <= mc.maxN; n *= 2 {
				orig := k.build(n)
				opt, _, err := transform.OptimizeVerifiedCtx(ctx, orig,
					transform.Config{Options: transform.All(), Verify: verify.ModeStructural})
				if err != nil {
					return nil, fmt.Errorf("optimize %s n=%d: %w", k.name, n, err)
				}
				for _, v := range []struct {
					variant string
					prog    *ir.Program
				}{{"original", orig}, {"optimized", opt}} {
					key := fmt.Sprintf("%s/%s/%s/%d", k.name, v.variant, spec.Name, n)
					out = append(out, sweepEntry{key: key, program: k.name + "/" + v.variant, n: n, prog: v.prog, spec: spec})
				}
			}
		}
	}
	return out, nil
}

func (w *sweepWorkload) setup(ctx context.Context, seed uint64) error {
	entries, err := buildSweep(ctx)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(sweepExpectedJSON, &w.expected); err != nil {
		return fmt.Errorf("expected statistics: %w", err)
	}
	for _, e := range entries {
		if _, ok := w.expected[e.key]; !ok {
			return fmt.Errorf("no expected statistics for %s", e.key)
		}
		if _, err := exec.Compile(e.prog); err != nil {
			return fmt.Errorf("compile %s: %w", e.key, err)
		}
		// Warm-up: measure the in-cache half of the sweep once.
		if e.n <= sweepWarmupN {
			if _, err := balance.MeasureCtx(ctx, e.prog, e.spec, exec.Limits{}); err != nil {
				return fmt.Errorf("warm-up %s: %w", e.key, err)
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	w.entries = entries
	return nil
}

func (w *sweepWorkload) measure(ctx context.Context, d time.Duration, traced bool, rec *recorder) error {
	for time.Since(rec.start) < d || rec.ops() == 0 {
		for _, e := range w.entries {
			w.op(ctx, e, traced, rec)
		}
	}
	rec.wall = time.Since(rec.start)
	return nil
}

// op is one balance measurement, checked against the expected per-level
// statistics.
func (w *sweepWorkload) op(ctx context.Context, e sweepEntry, traced bool, rec *recorder) {
	var tr *trace.Tracer
	var root *trace.Span
	if traced {
		tr = trace.New()
		root = tr.Start(nil, opSpan, trace.String("program", e.program))
		ctx = trace.NewContext(ctx, root)
	}
	begin := time.Now()
	mctx, span := trace.StartSpan(ctx, "balance.MeasureCtx")
	rep, err := balance.MeasureCtx(mctx, e.prog, e.spec, exec.Limits{})
	span.End()
	elapsed := time.Since(begin)
	if traced {
		root.End()
		rec.ledger.add(tr.Tree()[0])
	}
	if err == nil && !slices.Equal(rep.LevelStats, w.expected[e.key]) {
		err = fmt.Errorf("%s: cache statistics %+v, expected %+v", e.key, rep.LevelStats, w.expected[e.key])
	}
	rec.op(e.key, elapsed, err)
}

// check is a no-op: every op was checked as it finished.
func (w *sweepWorkload) check(context.Context, *recorder) error { return nil }

// finish reports the sweep's total slow-memory traffic and the
// geometric mean of its measured/bound gaps. Both are deterministic.
func (w *sweepWorkload) finish(ctx context.Context, m metrics) error {
	var total int64
	var gaps []float64
	for _, e := range w.entries {
		mem, gap, err := measureGap(ctx, e.prog, e.spec)
		if err != nil {
			return fmt.Errorf("%s: %w", e.key, err)
		}
		total += mem
		gaps = append(gaps, gap)
	}
	m.set("sim_mem_bytes", float64(total))
	m.set("opt_gap_geomean", geomean(gaps))
	return nil
}

// probe splits one sweep's measurement cost into execution and
// simulation.
func (w *sweepWorkload) probe(ctx context.Context, m metrics) error {
	return execSimProbe(ctx, w.entries, m["balance.measure_s"].Value, m)
}

func (w *sweepWorkload) close() {}

// writeSweepExpected measures every sweep entry once and writes the
// per-level statistics the measure-sweep check compares against. Run
// it only when a change is meant to alter what the simulator counts.
func writeSweepExpected(ctx context.Context, path string) error {
	entries, err := buildSweep(ctx)
	if err != nil {
		return err
	}
	out := make(map[string][]sim.Stats, len(entries))
	for _, e := range entries {
		rep, err := balance.MeasureCtx(ctx, e.prog, e.spec, exec.Limits{})
		if err != nil {
			return fmt.Errorf("%s: %w", e.key, err)
		}
		out[e.key] = rep.LevelStats
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
