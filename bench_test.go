// Package repro_test is the benchmark harness: one testing.B benchmark
// per table/figure of the paper's evaluation, each regenerating the
// artifact on the simulated machines and reporting its headline number
// as a custom metric. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks use the Quick experiment configuration (cache-scaled
// machines, reduced sizes) so a full sweep completes in seconds; the
// cmd/bwbench tool runs the same experiments at paper-regime sizes.
package repro_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fusion"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/transform"
	"repro/internal/verify"
)

func cell(tab *report.Table, rowKey string, col int) float64 {
	for _, r := range tab.Rows {
		if strings.Contains(r[0], rowKey) || (len(r) > 1 && strings.Contains(r[1], rowKey)) {
			f := strings.TrimSuffix(strings.Fields(r[col])[0], "%")
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				panic(err)
			}
			return v
		}
	}
	panic("row " + rowKey + " not found")
}

// BenchmarkSec21WriteVsRead regenerates the Section 2.1 table; the
// reported metric is the write/read time ratio (paper: ~1.9x).
func BenchmarkSec21WriteVsRead(b *testing.B) {
	cfg := core.Quick()
	var ratio float64
	for i := 0; i < b.N; i++ {
		tab, err := core.Sec21(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ratio = cell(tab, "write", 4)
	}
	b.ReportMetric(ratio, "write/read")
}

// BenchmarkFig1Balance regenerates the Figure 1 balance table; the
// metric is SP's memory balance in bytes/flop (paper: 4.9).
func BenchmarkFig1Balance(b *testing.B) {
	cfg := core.Quick()
	var v float64
	for i := 0; i < b.N; i++ {
		tab, err := core.Fig1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		v = cell(tab, "NAS/SP", 3)
	}
	b.ReportMetric(v, "SP-mem-B/flop")
}

// BenchmarkFig2Ratios regenerates Figure 2; the metric is the largest
// memory demand/supply ratio across the applications (paper: 10.5).
func BenchmarkFig2Ratios(b *testing.B) {
	cfg := core.Quick()
	var maxR float64
	for i := 0; i < b.N; i++ {
		tab, err := core.Fig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		maxR = 0
		for _, r := range tab.Rows {
			f, _ := strconv.ParseFloat(r[3], 64)
			if f > maxR {
				maxR = f
			}
		}
	}
	b.ReportMetric(maxR, "max-mem-ratio")
}

// BenchmarkFig3Kernels regenerates the Figure 3 effective-bandwidth
// series; the metric is the minimum Origin2000 utilization across the
// stride kernels (paper: all within ~20% of saturation).
func BenchmarkFig3Kernels(b *testing.B) {
	cfg := core.Quick()
	var minU float64
	for i := 0; i < b.N; i++ {
		tab, err := core.Fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		minU = 101
		for _, r := range tab.Rows {
			u, _ := strconv.ParseFloat(strings.TrimSuffix(r[2], "%"), 64)
			if u < minU {
				minU = u
			}
		}
	}
	b.ReportMetric(minU, "min-util-%")
}

// BenchmarkFig4Fusion regenerates the Figure 4 comparison; the metric
// is the arrays loaded by the bandwidth-minimal plan (paper: 7, vs 8
// edge-weighted and 20 unfused).
func BenchmarkFig4Fusion(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		tab, err := core.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		v = cell(tab, "bandwidth-minimal", 1)
	}
	b.ReportMetric(v, "arrays-loaded")
}

// BenchmarkFig5MinCut regenerates the Figure 5 table up to 64 loops,
// timing the fusion pass's minimum hyper-edge cut on each random
// hyper-graph (the paper bounds its algorithm as cubic in arrays,
// linear in loops).
func BenchmarkFig5MinCut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Fig5(64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6ShrinkPeel regenerates the Figure 6 storage-reduction
// comparison; the metric is the speedup of the shrunk/peeled form over
// the original.
func BenchmarkFig6ShrinkPeel(b *testing.B) {
	cfg := core.Quick()
	var v float64
	for i := 0; i < b.N; i++ {
		tab, err := core.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		v = cell(tab, "(c)", 4)
	}
	b.ReportMetric(v, "speedup-x")
}

// BenchmarkFig7StoreElimination runs the store-elimination pipeline on
// the Figure 7 program (the transformation itself, not its effect).
func BenchmarkFig7StoreElimination(b *testing.B) {
	p := kernels.Fig8Workload(core.Quick().Fig8N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := transform.OptimizeVerified(p, transform.Config{Pipeline: transform.DefaultPipelineSpec}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8StoreElim regenerates the Figure 8 timing table; the
// metric is the full-pipeline speedup on the Origin2000 model (paper:
// 0.32s -> 0.16s = 2x).
func BenchmarkFig8StoreElim(b *testing.B) {
	cfg := core.Quick()
	var v float64
	for i := 0; i < b.N; i++ {
		tab, err := core.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		v = cell(tab, "store elimination", 4)
	}
	b.ReportMetric(v, "speedup-x")
}

// BenchmarkSPUtilization regenerates the Section 2.3 per-routine
// bandwidth-utilization table; the metric is the number of routines at
// >= 84% utilization (paper: 5 of 7).
func BenchmarkSPUtilization(b *testing.B) {
	cfg := core.Quick()
	var high float64
	for i := 0; i < b.N; i++ {
		tab, err := core.SPUtilization(cfg)
		if err != nil {
			b.Fatal(err)
		}
		high = 0
		for _, r := range tab.Rows {
			u, _ := strconv.ParseFloat(strings.TrimSuffix(r[2], "%"), 64)
			if u >= 84 {
				high++
			}
		}
	}
	b.ReportMetric(high, "routines>=84%")
}

// BenchmarkModelAblation regenerates the bandwidth-vs-latency model
// comparison; the metric is the bandwidth model's write/read ratio
// (the latency model predicts 1.0 and is refuted by the paper's
// measurements).
func BenchmarkModelAblation(b *testing.B) {
	cfg := core.Quick()
	var v float64
	for i := 0; i < b.N; i++ {
		tab, err := core.ModelAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		v = cell(tab, "bandwidth-bound", 3)
	}
	b.ReportMetric(v, "bw-model-ratio")
}

// BenchmarkConflictStudy regenerates the footnote-3 conflict study; the
// metric is the direct-mapped / 8-way traffic ratio for 3w6r.
func BenchmarkConflictStudy(b *testing.B) {
	cfg := core.Quick()
	var dm, sa float64
	for i := 0; i < b.N; i++ {
		tab, err := core.ConflictStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tab.Rows {
			if r[0] == "3w6r" {
				v, _ := strconv.ParseFloat(strings.Fields(r[2])[0], 64)
				if r[1] == "direct-mapped" {
					dm = v
				} else {
					sa = v
				}
			}
		}
	}
	b.ReportMetric(dm/sa, "conflict-excess-x")
}

// BenchmarkStreamCalibration runs the STREAM probe on the Origin2000
// model (the paper's machine-balance calibration).
func BenchmarkStreamCalibration(b *testing.B) {
	s := machine.Scaled(machine.Origin2000(), 16)
	n := 4 * s.Caches[len(s.Caches)-1].Size / 8
	var bw float64
	for i := 0; i < b.N; i++ {
		bw = machine.Stream(s, n).Triad
	}
	b.ReportMetric(bw/1e6, "triad-MB/s")
}

// BenchmarkCacheBench runs the CacheBench-style sweep on the scaled
// Origin2000 model.
func BenchmarkCacheBench(b *testing.B) {
	s := machine.Scaled(machine.Origin2000(), 16)
	for i := 0; i < b.N; i++ {
		machine.CacheBench(s, 4, 1024)
	}
}

// --- microbenchmarks of the infrastructure itself -----------------------

// BenchmarkSimulatorAccess measures raw simulator throughput
// (accesses/op is 1).
func BenchmarkSimulatorAccess(b *testing.B) {
	h := sim.MustHierarchy(
		sim.CacheConfig{Name: "L1", Size: 32 << 10, LineSize: 32, Assoc: 2},
		sim.CacheConfig{Name: "L2", Size: 4 << 20, LineSize: 128, Assoc: 2},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(int64(i%1_000_000)*8, 8)
	}
}

// BenchmarkSimulatorAccessProfiled is the attribution-on sibling of
// BenchmarkSimulatorAccess: the same access stream, site-tagged, with
// per-site bucketing live. benchstat against the plain benchmark gives
// the marginal cost of attribution in the simulator's hot loop; the
// profiling-off path is BenchmarkSimulatorAccess itself.
func BenchmarkSimulatorAccessProfiled(b *testing.B) {
	h := sim.MustHierarchy(
		sim.CacheConfig{Name: "L1", Size: 32 << 10, LineSize: 32, Assoc: 2},
		sim.CacheConfig{Name: "L2", Size: 4 << 20, LineSize: 128, Assoc: 2},
	)
	h.EnableProfiling()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.LoadSite(int64(i%1_000_000)*8, 8, uint32(i%8))
	}
}

// BenchmarkMeasure is the plain measurement path: one hierarchy
// straight on the engine.
func BenchmarkMeasure(b *testing.B) {
	p := kernels.Dmxpy(64)
	specs := []machine.Spec{machine.Origin2000()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := balance.Measure(context.Background(), p, specs, balance.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureAttributed measures the profiled path: site
// assignment on a clone, per-site bucketing during simulation, the
// footprint recorder teed onto the same run, and bounds and
// attribution assembly. Its ratio to BenchmarkMeasure is the
// profiling-on cost.
func BenchmarkMeasureAttributed(b *testing.B) {
	p := kernels.Dmxpy(64)
	specs := []machine.Spec{machine.Origin2000()}
	opts := balance.Options{Bounds: true, Profile: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := balance.Measure(context.Background(), p, specs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureSweep runs the largest sizes of perfbench's
// measure-sweep workload: fig7 and conv, original and optimized, at
// n=1<<20 on Origin2000 and n=1<<19 on SkylakeSP, one plain balance
// measurement each per op. It reports ns/access, the wall time of the
// measurements (execution and simulation) per simulated L1 access, so
// the simulator's rate stays readable without the benchmark harness.
func BenchmarkMeasureSweep(b *testing.B) {
	type entry struct {
		p    *ir.Program
		spec machine.Spec
	}
	var entries []entry
	for _, build := range []func(int) *ir.Program{kernels.Fig7Original, kernels.Convolution} {
		for _, m := range []struct {
			spec machine.Spec
			n    int
		}{{machine.Origin2000(), 1 << 20}, {machine.SkylakeSP(), 1 << 19}} {
			orig := build(m.n)
			opt, _, err := transform.OptimizeVerified(orig,
				transform.Config{Pipeline: transform.DefaultPipelineSpec, Verify: verify.ModeStructural})
			if err != nil {
				b.Fatal(err)
			}
			entries = append(entries, entry{orig, m.spec}, entry{opt, m.spec})
		}
	}
	ctx := context.Background()
	var accesses int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range entries {
			reps, err := balance.Measure(ctx, e.p, []machine.Spec{e.spec}, balance.Options{})
			if err != nil {
				b.Fatal(err)
			}
			st := reps[0].LevelStats[0]
			accesses += st.Reads + st.Writes
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
}

// BenchmarkExecutor measures interpreter throughput on a simple
// streaming loop (elements/op reported).
func BenchmarkExecutor(b *testing.B) {
	p := kernels.Sec21Read(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(p, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100_000, "elems/op")
}

// BenchmarkTwoPartition times the fusion pass's minimum hyper-edge cut
// (fusion.Graph.TwoPartition) on a 128-loop graph with 191 arrays: a
// chain of loop pairs plus 64 three-loop arrays over interior loops.
func BenchmarkTwoPartition(b *testing.B) {
	g := fusion.NewAbstract(128)
	for v := 0; v+1 < 128; v++ {
		if err := g.AddArray(fmt.Sprintf("c%d", v), v, v+1); err != nil {
			b.Fatal(err)
		}
	}
	for e := 0; e < 64; e++ {
		if err := g.AddArray(fmt.Sprintf("A%d", e), 1+(e*3)%126, 1+(e*5)%126, 1+(e*7)%126); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.TwoPartition(0, 127); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusionPipeline measures the full compiler pipeline on the
// four-stage stencil chain.
func BenchmarkFusionPipeline(b *testing.B) {
	p := kernels.Fig7Original(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := transform.OptimizeVerified(p, transform.Config{Pipeline: transform.DefaultPipelineSpec}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegroupStudy regenerates the data-regrouping extension; the
// metric is the speedup from interleaving the 3w6r arrays on the
// direct-mapped Exemplar.
func BenchmarkRegroupStudy(b *testing.B) {
	cfg := core.Quick()
	var v float64
	for i := 0; i < b.N; i++ {
		tab, err := core.RegroupStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		v = cell(tab, "interleaved", 3)
	}
	b.ReportMetric(v, "speedup-x")
}

// BenchmarkBeladyStudy regenerates the Burger-et-al optimal-replacement
// comparison; the metric is blocked-mm traffic relative to jki under
// LRU (restructuring beats even the optimal policy).
func BenchmarkBeladyStudy(b *testing.B) {
	cfg := core.Quick()
	var v float64
	for i := 0; i < b.N; i++ {
		tab, err := core.BeladyStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		v = cell(tab, "blocked", 3)
	}
	b.ReportMetric(v, "blocked-vs-lru")
}

// BenchmarkCompiledExecutor measures the closure-compiled engine on the
// same streaming loop as BenchmarkExecutor, for a direct comparison of
// the two execution engines.
func BenchmarkCompiledExecutor(b *testing.B) {
	p := kernels.Sec21Read(100_000)
	cp, err := exec.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100_000, "elems/op")
}

// BenchmarkCompiledVerifyMatmul measures the engine behind differential
// verification: RunVectors over both input vectors of a 128³ matrix
// multiply with no machine, as the pass manager's baseline and every
// differential check run it. It reports ns per executed loop-body
// iteration across the two vectors. That is wall time: the vectors run
// concurrently, so with two or more CPUs it is about half the
// per-iteration cost of one vector.
func BenchmarkCompiledVerifyMatmul(b *testing.B) {
	const n = 128
	benchVerify(b, kernels.MatmulJKI(n), n+n*n+n*n*n)
}

// BenchmarkCompiledVerifySec21 is BenchmarkCompiledVerifyMatmul on the
// Section 2.1 pair at n = 100000: an update sweep, then a reduction.
func BenchmarkCompiledVerifySec21(b *testing.B) {
	const n = 100_000
	benchVerify(b, kernels.Sec21Pair(n), 2*n)
}

// BenchmarkCompiledVerifyConv is BenchmarkCompiledVerifyMatmul on the
// three-point convolution at n = 100000, a stencil.
func BenchmarkCompiledVerifyConv(b *testing.B) {
	const n = 100_000
	benchVerify(b, kernels.Convolution(n), n-2)
}

// benchVerify times RunVectors over both input vectors of p, which
// executes iters loop-body iterations per vector, and reports wall ns
// per iteration.
func benchVerify(b *testing.B, p *ir.Program, iters int) {
	cp, err := exec.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.RunVectors(ctx, 2, exec.Limits{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(2*iters)), "ns/iter")
}

// BenchmarkCompiledExecutorWithSim includes the cache simulator, the
// configuration used by every experiment.
func BenchmarkCompiledExecutorWithSim(b *testing.B) {
	p := kernels.Sec21Read(100_000)
	cp, err := exec.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	spec := machine.Origin2000()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.Run(spec.NewHierarchy()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceRecordInterpreter measures replay-trace generation
// (the Belady study's hot loop) under the tree-walking interpreter —
// the differential-oracle path kept for cross-checking the engines.
func BenchmarkTraceRecordInterpreter(b *testing.B) {
	p := kernels.MatmulJKI(32)
	l2 := sim.CacheConfig{Name: "L2", Size: 6144, LineSize: 128, Assoc: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := sim.NewRecorder(l2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exec.Run(p, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceRecordCompiled measures the same trace generation under
// the closure-compiled engine — the path BeladyStudy actually uses.
// Comparing the two is the guard that the compiled route stays the
// faster one (it emits the identical access stream; see the
// differential oracle test in internal/core).
func BenchmarkTraceRecordCompiled(b *testing.B) {
	p := kernels.MatmulJKI(32)
	l2 := sim.CacheConfig{Name: "L2", Size: 6144, LineSize: 128, Assoc: 2}
	cp, err := exec.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := sim.NewRecorder(l2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cp.Run(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterchangeStudy regenerates the stride-fix study; the
// metric is the interchange speedup (the cache line-size factor).
func BenchmarkInterchangeStudy(b *testing.B) {
	cfg := core.Quick()
	var v float64
	for i := 0; i < b.N; i++ {
		tab, err := core.InterchangeStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		v = cell(tab, "interchanged", 4)
	}
	b.ReportMetric(v, "speedup-x")
}

// BenchmarkRegisterBalanceStudy regenerates the unroll-and-jam +
// scalarize study; the metric is the resulting register balance in
// bytes/flop (paper's mm -O3: 8.08).
func BenchmarkRegisterBalanceStudy(b *testing.B) {
	cfg := core.Quick()
	var v float64
	for i := 0; i < b.N; i++ {
		tab, err := core.RegisterBalanceStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		v = cell(tab, "unroll-and-jam", 1)
	}
	b.ReportMetric(v, "reg-B/flop")
}

// BenchmarkFutureBalanceStudy regenerates the CPU-scaling sweep; the
// metric is the CPU-utilization bound at 8x CPU speed.
func BenchmarkFutureBalanceStudy(b *testing.B) {
	cfg := core.Quick()
	var v float64
	for i := 0; i < b.N; i++ {
		tab, err := core.FutureBalanceStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		v = cell(tab, "8x", 2)
	}
	b.ReportMetric(v, "cpu-bound-%")
}
