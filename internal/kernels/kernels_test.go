package kernels

import (
	"context"
	"math"
	"testing"

	"repro/internal/balance"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/machine"
)

// measure is the plain balance measurement of p on one machine.
func measure(p *ir.Program, spec machine.Spec) (*balance.Report, error) {
	reps, err := balance.Measure(context.Background(), p, []machine.Spec{spec}, balance.Options{})
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

func TestSec21PairMatchesComponents(t *testing.T) {
	w, r, pair := Sec21Write(64), Sec21Read(64), Sec21Pair(64)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(pair, nil)
	if err != nil {
		t.Fatal(err)
	}
	// sum over a[i]+0.4 with zero-initialized a = 64*0.4.
	if math.Abs(res.Scalars["sum"]-64*0.4) > 1e-9 {
		t.Fatalf("sum = %v", res.Scalars["sum"])
	}
}

func TestSec21WriteIsTwiceRead(t *testing.T) {
	spec := machine.Origin2000()
	rw, err := measure(Sec21Write(200000), spec)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := measure(Sec21Read(200000), spec)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := rw.Time.Total / rr.Time.Total; math.Abs(ratio-2) > 0.1 {
		t.Fatalf("write/read = %.2f, want ~2", ratio)
	}
}

func TestAllStrideKernelsRun(t *testing.T) {
	for _, name := range StrideKernelNames {
		p, err := StrideKernel(name, 512)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := exec.Run(p, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := StrideKernel("9w9r", 8); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestStrideKernelReadWriteCounts(t *testing.T) {
	// Verify each kernel's name matches its actual access pattern.
	wants := map[string][2]int{ // name -> {writes, reads}
		"1w1r": {1, 1}, "2w2r": {2, 2}, "3w3r": {3, 3}, "1w2r": {1, 2},
		"1w3r": {1, 3}, "1w4r": {1, 4}, "2w3r": {2, 3}, "2w5r": {2, 5},
		"3w6r": {3, 6}, "0w1r": {0, 1}, "0w2r": {0, 2}, "0w3r": {0, 3},
	}
	for name, want := range wants {
		p := MustStrideKernel(name, 64)
		writes, reads := map[string]bool{}, map[string]bool{}
		for _, n := range p.Nests {
			for _, a := range n.ArraysAccessed(p) {
				if n.WritesArray(p, a) {
					writes[a] = true
				}
				if n.ReadsArray(p, a) {
					reads[a] = true
				}
			}
		}
		if len(writes) != want[0] || len(reads) != want[1] {
			t.Fatalf("%s: %dw%dr measured", name, len(writes), len(reads))
		}
	}
}

func TestConvolutionBalanceShape(t *testing.T) {
	r, err := measure(Convolution(200000), machine.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	// 3 loads + 1 store per 5 flops: register balance 6.4 B/flop.
	if math.Abs(r.ProgramBalance[0]-6.4) > 0.2 {
		t.Fatalf("register balance = %.2f, want ~6.4", r.ProgramBalance[0])
	}
	// Memory balance near 4.8 (the paper measured 5.2): strongly
	// memory-bound on Origin2000's 0.8 B/flop.
	if r.ProgramBalance[2] < 4 || r.ProgramBalance[2] > 6 {
		t.Fatalf("memory balance = %.2f, want ~5", r.ProgramBalance[2])
	}
	if r.Bottleneck != "Mem-L2" {
		t.Fatalf("bottleneck = %s", r.Bottleneck)
	}
}

func TestDmxpyMemoryBound(t *testing.T) {
	r, err := measure(Dmxpy(400), machine.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	// The matrix is touched once per element with no reuse: memory
	// balance stays several bytes per flop, far above the 0.8 supply.
	if r.ProgramBalance[2] < 3 {
		t.Fatalf("memory balance = %.2f", r.ProgramBalance[2])
	}
	if r.Ratios[2] < 4 {
		t.Fatalf("memory ratio = %.2f", r.Ratios[2])
	}
}

func TestMatmulBlockingCollapsesMemoryBalance(t *testing.T) {
	// Scaled machine: cache capacities shrunk so a 128x128 matrix is
	// out-of-cache, as the paper's 2000-scale problems were on the real
	// Origin2000 (balance depends only on the footprint/capacity ratio).
	spec := machine.Origin2000()
	spec.Caches[0].Size = 4 << 10
	spec.Caches[1].Size = 64 << 10
	jki, err := measure(MatmulJKI(128), spec)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := measure(MustMatmulBlocked(128, 16), spec)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline compiler result: -O3 blocking drops memory
	// balance from 5.9 to 0.04 B/flop. At this scale we check the
	// shape: a large multiple.
	if jki.ProgramBalance[2] < 1 {
		t.Fatalf("jki memory balance = %.3f, expected memory-hungry", jki.ProgramBalance[2])
	}
	if blk.ProgramBalance[2] > jki.ProgramBalance[2]/6 {
		t.Fatalf("blocking reduced balance only %.3f -> %.3f",
			jki.ProgramBalance[2], blk.ProgramBalance[2])
	}
	// Same results: both compute C = A*B over zero-filled inputs; a
	// stronger check runs them with filled arrays.
	if blk2, err := MatmulBlocked(100, 32); err == nil || blk2 != nil {
		t.Fatal("non-dividing block size accepted")
	}
}

func TestMatmulBlockedEquivalentToJKI(t *testing.T) {
	a := FillArrays(MatmulJKI(16))
	b := FillArrays(MustMatmulBlocked(16, 8))
	ra, err := exec.Run(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := exec.Run(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := ra.Array("c"), rb.Array("c")
	for i := range ca {
		if math.Abs(ca[i]-cb[i]) > 1e-9*(1+math.Abs(ca[i])) {
			t.Fatalf("c[%d]: %v vs %v", i, ca[i], cb[i])
		}
	}
}

func TestFFTRunsAndIsMemoryModerate(t *testing.T) {
	p := MustFFT(1 << 12)
	r, err := measure(p, machine.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	if r.Flops == 0 {
		t.Fatal("no flops counted")
	}
	if _, err := FFT(100); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
}

func TestFFTCorrectOnImpulse(t *testing.T) {
	// The input stream is pseudo-random, so validate structure instead:
	// FFT of N samples conserves sum(re) at bin 0 only in special
	// cases; here we check Parseval-ish stability by running twice and
	// comparing (determinism) plus a small hand case below.
	p := MustFFT(8)
	r1, err := exec.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := exec.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Prints[0] != r2.Prints[0] {
		t.Fatal("FFT not deterministic")
	}
	// DC bin: re[0] after the FFT must equal the sum of the (real)
	// inputs. Recover the same deterministic input stream with a
	// trivial reader program and compare.
	re := r1.Array("re")
	reader := mustParse(`
program reader
const N = 8
array x[N]
scalar s
loop R { for i = 0, N-1 { read x[i]
  s = s + x[i] } }
`)
	rr, err := exec.Run(reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := rr.Scalars["s"]
	if math.Abs(re[0]-sum) > 1e-9 {
		t.Fatalf("DC bin %v != input sum %v", re[0], sum)
	}
}

func TestSPRoutinesRunAndCombine(t *testing.T) {
	for _, name := range SPRoutineNames {
		p, err := SPRoutine(name, 24)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := exec.Run(p, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := SPRoutine("warp", 8); err == nil {
		t.Fatal("unknown routine accepted")
	}
	full := SP(24)
	if _, err := exec.Run(full, nil); err != nil {
		t.Fatal(err)
	}
	if len(full.Nests) < 7 {
		t.Fatalf("SP has %d nests", len(full.Nests))
	}
}

func TestSPMemoryBound(t *testing.T) {
	r, err := measure(FillArrays(SP(96)), machine.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	// The paper: SP demands 4.9 B/flop of memory bandwidth against a
	// 0.8 supply (ratio 6.1, CPU bound 16%).
	if r.Ratios[2] < 2 {
		t.Fatalf("SP memory ratio = %.2f, expected memory-bound", r.Ratios[2])
	}
	if r.CPUUtilizationBound > 0.5 {
		t.Fatalf("CPU bound = %.2f", r.CPUUtilizationBound)
	}
}

func TestSweep3DRunsAndIsMemoryBound(t *testing.T) {
	p := Sweep3DCheck(64, 4)
	res, err := exec.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Prints) != 1 {
		t.Fatal("checksum missing")
	}
	r, err := measure(FillArrays(Sweep3D(96, 4)), machine.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	if r.Ratios[2] < 1 {
		t.Fatalf("sweep3d memory ratio = %.2f", r.Ratios[2])
	}
}

func TestFig6VariantsEquivalent(t *testing.T) {
	const n = 24
	a, err := exec.Run(Fig6Original(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exec.Run(Fig6Fused(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := exec.Run(Fig6ShrunkPeeled(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Prints[0]-b.Prints[0]) > 1e-9*(1+math.Abs(a.Prints[0])) {
		t.Fatalf("fused differs: %v vs %v", a.Prints[0], b.Prints[0])
	}
	if math.Abs(a.Prints[0]-c.Prints[0]) > 1e-9*(1+math.Abs(a.Prints[0])) {
		t.Fatalf("shrunk/peeled differs: %v vs %v", a.Prints[0], c.Prints[0])
	}
}

func TestFig6StorageCollapse(t *testing.T) {
	// (a) uses two (N+1)^2 arrays; (c) uses two (N+1) arrays + scalars.
	a, c := Fig6Original(64), Fig6ShrunkPeeled(64)
	if ratio := float64(a.TotalArrayBytes()) / float64(c.TotalArrayBytes()); ratio < 30 {
		t.Fatalf("storage reduction only %.1fx", ratio)
	}
}

func TestFig6TrafficDropsAcrossVariants(t *testing.T) {
	const n = 96
	spec := machine.Origin2000()
	// Shrink caches so the n x n arrays overflow them (scaled model of
	// the paper's out-of-cache regime).
	spec.Caches[0].Size = 2048
	spec.Caches[1].Size = 16384
	ra, err := measure(Fig6Original(n), spec)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := measure(Fig6Fused(n), spec)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := measure(Fig6ShrunkPeeled(n), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !(rb.MemoryBytes < ra.MemoryBytes) {
		t.Fatalf("fusion did not cut traffic: %d -> %d", ra.MemoryBytes, rb.MemoryBytes)
	}
	if !(rc.MemoryBytes < rb.MemoryBytes/4) {
		t.Fatalf("shrink/peel did not collapse traffic: %d -> %d", rb.MemoryBytes, rc.MemoryBytes)
	}
}

func TestFig7OriginalRuns(t *testing.T) {
	p := Fig7Original(128)
	r, err := exec.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Prints) != 1 {
		t.Fatal("missing print")
	}
}

func TestFillArraysCoversAllRanks(t *testing.T) {
	p := mustParse(`
program t
array a[4]
array b[4,4]
array c[4,4,2]
scalar s
loop L1 {
  s = a[0] + b[0,0] + c[0,0,0]
  print s
}
`)
	q := FillArrays(p)
	r, err := exec.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Prints[0] == 0 {
		t.Fatal("arrays not filled")
	}
}
