package balance

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/transform"
)

func mrcOracleKernels() []struct {
	name string
	p    *ir.Program
} {
	return []struct {
		name string
		p    *ir.Program
	}{
		{"convolution", kernels.Convolution(20)},
		{"dmxpy", kernels.Dmxpy(28)},
		{"mm-jki", kernels.MatmulJKI(14)},
		{"fig6", kernels.Fig6Original(48)},
		{"fig7", kernels.Fig7Original(48)},
	}
}

// TestMRCOracle is the inclusion-property oracle: for every built-in
// kernel, original and optimized, on every registered machine, the
// one-pass miss-ratio curve evaluated at the machine's exact level
// capacities must reproduce an independent fixed-geometry simulation
// bit for bit — misses, writebacks and channel traffic alike — and
// the curve must be monotonically non-increasing in capacity.
func TestMRCOracle(t *testing.T) {
	for _, k := range mrcOracleKernels() {
		variants := []struct {
			name string
			p    *ir.Program
		}{{"original", k.p}}
		opt, _, err := transform.OptimizeVerified(k.p, transform.Config{Pipeline: transform.DefaultPipelineSpec})
		if err != nil {
			t.Fatalf("optimize %s: %v", k.name, err)
		}
		variants = append(variants, struct {
			name string
			p    *ir.Program
		}{"optimized", opt})
		for _, e := range machine.Entries() {
			for _, v := range variants {
				e, v := e, v
				t.Run(fmt.Sprintf("%s/%s/%s", k.name, e.Spec.Name, v.name), func(t *testing.T) {
					t.Parallel()
					rep, err := measureOn(v.p, e.Spec, Options{MRC: true})
					if err != nil {
						t.Fatal(err)
					}
					plain, err := measureOn(v.p, e.Spec, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if rep.MRC == nil {
						t.Fatal("MeasureMRC attached no MRC result")
					}
					for li, lv := range rep.MRC.Levels {
						if !lv.MatchesFixed {
							t.Fatalf("level %s: curve does not match the fixed simulation it rode on", lv.Name)
						}
						want := plain.LevelStats[li]
						var at *MRCPoint
						for pi := range lv.Points {
							if lv.Points[pi].CapacityBytes == lv.CapacityBytes {
								at = &lv.Points[pi]
							}
						}
						if at == nil {
							t.Fatalf("level %s: no curve point at the configured capacity %d", lv.Name, lv.CapacityBytes)
						}
						if at.Misses != want.Misses() || at.ReadMisses != want.ReadMisses ||
							at.WriteMisses != want.WriteMisses || at.Writebacks != want.Writebacks ||
							at.TrafficBytes != want.Traffic() {
							t.Fatalf("level %s at %dB: curve point %+v != fixed stats %+v",
								lv.Name, lv.CapacityBytes, *at, want)
						}
						for pi := 1; pi < len(lv.Points); pi++ {
							a, b := lv.Points[pi-1], lv.Points[pi]
							if b.CapacityBytes <= a.CapacityBytes {
								t.Fatalf("level %s: capacities not ascending", lv.Name)
							}
							if b.Misses > a.Misses || b.TrafficBytes > a.TrafficBytes {
								t.Fatalf("level %s: curve not monotone at %dB", lv.Name, b.CapacityBytes)
							}
						}
					}
					// The knee list rates the measured machine only.
					if len(rep.MRC.Knees) != 1 || rep.MRC.Knees[0].Machine != e.Spec.Name {
						t.Fatalf("knees %+v, want one row, for %s", rep.MRC.Knees, e.Spec.Name)
					}
					// The timeline partitions the run: per-epoch memory
					// bytes and flops sum to the run totals.
					var mem, flops int64
					for _, ep := range rep.MRC.Timeline {
						mem += ep.MemBytes
						flops += ep.Flops
					}
					if mem != rep.MemoryBytes {
						t.Fatalf("timeline mem bytes %d != report %d", mem, rep.MemoryBytes)
					}
					if flops != rep.Flops {
						t.Fatalf("timeline flops %d != report %d", flops, rep.Flops)
					}
				})
			}
		}
	}
}

// TestMRCOffPathInert pins the recording-off contract (PR 9
// discipline): a plain Measure attaches no MRC result, and an MRC
// measurement does its site assignment on a private clone so the
// caller's program is never mutated.
func TestMRCOffPathInert(t *testing.T) {
	p := kernels.Dmxpy(24)
	r, err := measureOn(p, machine.Origin2000(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MRC != nil {
		t.Fatal("MeasureCtx attached an MRC result without being asked")
	}
	rm, err := measureOn(p, machine.Origin2000(), Options{MRC: true})
	if err != nil {
		t.Fatal(err)
	}
	if rm.MRC == nil || len(rm.MRC.Levels) == 0 {
		t.Fatal("MeasureMRC produced no curves")
	}
	var tainted int
	for _, n := range p.Nests {
		ir.WalkRefs(n.Body, p, func(r *ir.Ref, _ bool) {
			if r.Site != 0 {
				tainted++
			}
		})
	}
	if tainted > 0 {
		t.Fatalf("MeasureMRC left %d site IDs on the shared program", tainted)
	}
}

// TestMRCBudgetAndCancel: the recorder runs under the engine's step
// budget and context polling, and an MRC measurement defaults a zero
// budget to bounds.DefaultMaxSteps, so a pathological kernel cannot wedge a
// worker.
func TestMRCBudgetAndCancel(t *testing.T) {
	p := kernels.MatmulJKI(48)
	_, err := measureOn(p, machine.Origin2000(), Options{Limits: exec.Limits{MaxSteps: 10}, MRC: true})
	if !errors.Is(err, exec.ErrStepBudget) {
		t.Fatalf("tiny step budget: got %v, want ErrStepBudget", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = primary(Measure(ctx, p, []machine.Spec{machine.Origin2000()}, Options{MRC: true}))
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("canceled ctx: got %v, want ErrCanceled", err)
	}
}

// TestMRCOnOverheadGuard bounds the recording-on cost: one
// reuse-distance-instrumented measurement (Fenwick updates, per-site
// histograms, curve assembly) must stay within a fixed multiple of
// one plain simulation. The ceiling only trips if the recorder stops
// being O(log) per access — e.g. a per-access allocation or a linear
// stack walk sneaking in.
func TestMRCOnOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	ratio, plain, mrc := overheadRatio(t, Options{MRC: true})
	if plain <= 0 {
		t.Skip("plain measurement below timer resolution")
	}
	if ratio > 12 {
		t.Fatalf("mrc measurement %.1fx the plain one (median pair ratio; medians %v vs %v), ceiling 12x",
			ratio, mrc, plain)
	}
}

// BenchmarkMeasure is the plain-measurement baseline for the MRC
// overhead comparison.
func BenchmarkMeasure(b *testing.B) {
	p := kernels.Dmxpy(48)
	spec := machine.Origin2000()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := measureOn(p, spec, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureMRC times the one-pass reuse-distance measurement;
// compare against BenchmarkMeasure for the recording overhead.
func BenchmarkMeasureMRC(b *testing.B) {
	p := kernels.Dmxpy(48)
	spec := machine.Origin2000()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := measureOn(p, spec, Options{MRC: true}); err != nil {
			b.Fatal(err)
		}
	}
}
