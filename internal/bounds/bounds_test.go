package bounds_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/balance"
	"repro/internal/bounds"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/machine"
)

// TestMatmulAnalyticForm is the acceptance criterion's self-test: the
// pebbling bound on matrix multiply must match the classical
// Ω(n³/√S) form within a constant factor. The Hong-Kung constant in
// this derivation is 1/(2√2) ≈ 0.354 elements per n³/√S_e.
func TestMatmulAnalyticForm(t *testing.T) {
	const fastBytes = 64 * bounds.ElemSize // S_e = 64 + 16 spare = 80 elements
	for _, n := range []int{48, 64, 96, 128} {
		p := kernels.MatmulJKI(n)
		pb := bounds.ComputePebble(p)
		if len(pb.Nests) != 1 {
			t.Fatalf("n=%d: matmul matched %d nests, want 1", n, len(pb.Nests))
		}
		nest := pb.Nests[0]
		if want := int64(n) * int64(n) * int64(n); nest.Points != want {
			t.Fatalf("n=%d: |I|=%d, want %d", n, nest.Points, want)
		}
		b, ok := pb.Bound(fastBytes)
		if !ok {
			t.Fatalf("n=%d: no pebbling bound", n)
		}
		se := float64(fastBytes)/bounds.ElemSize + float64(pb.Scalars) + 16
		analytic := math.Pow(float64(n), 3) / math.Sqrt(se) // elements
		ratio := float64(b.Bytes) / bounds.ElemSize / analytic
		t.Logf("n=%d: bound %d B, n³/√S_e = %.0f elems, ratio %.3f", n, b.Bytes, analytic, ratio)
		// 1/(2√2) ≈ 0.354, minus the ceil(−1) truncation at small n.
		if ratio < 0.2 || ratio > 0.4 {
			t.Errorf("n=%d: bound/(n³/√S_e) = %.3f outside [0.2, 0.4]", n, ratio)
		}
	}

	// Cubic growth in n and inverse-√ scaling in S.
	p := kernels.MatmulJKI(128)
	pb := bounds.ComputePebble(p)
	b64, _ := pb.Bound(fastBytes)
	pHalf := kernels.MatmulJKI(64)
	bHalf, _ := bounds.ComputePebble(pHalf).Bound(fastBytes)
	if g := float64(b64.Bytes) / float64(bHalf.Bytes); g < 6 || g > 10 {
		t.Errorf("doubling n scaled the bound by %.2f, want ~8 (cubic)", g)
	}
	b4x, _ := pb.Bound(4 * fastBytes)
	if g := float64(b64.Bytes) / float64(b4x.Bytes); g < 1.5 || g > 2.6 {
		t.Errorf("4x capacity shrank the bound by %.2f, want ~2 (1/√S)", g)
	}
}

// TestPebbleMatcherSoundness: shapes whose minimal traffic genuinely
// beats n³/√S must not match. The overwrite variant (no accumulation
// read of the output) admits O(n²)-traffic schedules; short-circuit
// operators make witness reads conditional.
func TestPebbleMatcherSoundness(t *testing.T) {
	overwrite := lang.MustParse(`
program overwrite
const N = 32
array a[N, N]
array b[N, N]
array c[N, N]
loop MM {
  for j = 0, N - 1 {
    for k = 0, N - 1 {
      for i = 0, N - 1 {
        c[i,j] = a[i,k] * b[k,j]
      }
    }
  }
}
`)
	if pb := bounds.ComputePebble(overwrite); len(pb.Nests) != 0 {
		t.Errorf("overwrite-style nest matched the pebbling detector: %+v", pb.Nests)
	}

	guarded := lang.MustParse(`
program guarded
const N = 32
array a[N, N]
array b[N, N]
array c[N, N]
loop MM {
  for j = 0, N - 1 {
    for k = 0, N - 1 {
      for i = 0, N - 1 {
        c[i,j] = c[i,j] + (a[i,k] < 1 && b[k,j] > 0)
      }
    }
  }
}
`)
	if pb := bounds.ComputePebble(guarded); len(pb.Nests) != 0 {
		t.Errorf("short-circuit nest matched the pebbling detector: %+v", pb.Nests)
	}

	// A read of the written array at a different index is not a witness.
	aliased := lang.MustParse(`
program aliased
const N = 32
array a[N, N]
array b[N, N]
array c[N, N]
loop MM {
  for j = 0, N - 1 {
    for k = 0, N - 1 {
      for i = 0, N - 1 {
        c[i,k] = c[i,j] + a[i,k] * b[k,j]
      }
    }
  }
}
`)
	if pb := bounds.ComputePebble(aliased); len(pb.Nests) != 0 {
		t.Errorf("aliased-index nest matched the pebbling detector: %+v", pb.Nests)
	}

	// Blocked matmul is 5-deep: out of the detector's scope (the
	// compulsory floor is near-tight there anyway).
	if pb := bounds.ComputePebble(kernels.MustMatmulBlocked(32, 8)); len(pb.Nests) != 0 {
		t.Errorf("blocked matmul matched the 3-loop detector: %+v", pb.Nests)
	}
}

// TestFootprintMatmul pins the exact census for uninitialized matmul:
// every element of a, b is read first; c is read (accumulation) before
// written.
func TestFootprintMatmul(t *testing.T) {
	const n = 16
	fp, err := bounds.ComputeFootprint(context.Background(), kernels.MatmulJKI(n), exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	nn := int64(n * n)
	if fp.TouchedElems != 3*nn || fp.LiveInElems != 3*nn || fp.LiveOutElems != nn {
		t.Fatalf("census = %+v, want touched %d, live-in %d, live-out %d", fp, 3*nn, 3*nn, nn)
	}
	if len(fp.Arrays) != 3 {
		t.Fatalf("per-array census has %d entries: %+v", len(fp.Arrays), fp.Arrays)
	}
	for _, a := range fp.Arrays {
		switch a.Array {
		case "a", "b":
			if a.Touched != nn || a.LiveIn != nn || a.LiveOut != 0 {
				t.Errorf("%s census %+v", a.Array, a)
			}
		case "c":
			if a.Touched != nn || a.LiveIn != nn || a.LiveOut != nn {
				t.Errorf("c census %+v", a)
			}
		}
	}
	if want := (3*nn + nn) * bounds.ElemSize; fp.Bound().Bytes != want {
		t.Fatalf("compulsory bound %d, want %d", fp.Bound().Bytes, want)
	}
}

// TestCDAGCrossChecksFootprint compares the dynamic census against the
// static CDAG construction — two independent implementations of the
// same input/output counts.
func TestCDAGCrossChecksFootprint(t *testing.T) {
	for name, p := range map[string]*ir.Program{
		"mm":    kernels.MatmulJKI(12),
		"conv":  kernels.Convolution(256),
		"dmxpy": kernels.Dmxpy(24),
	} {
		g, err := bounds.BuildCDAG(p)
		if err != nil {
			t.Fatalf("%s: cdag: %v", name, err)
		}
		fp, err := bounds.ComputeFootprint(context.Background(), p, exec.Limits{})
		if err != nil {
			t.Fatalf("%s: footprint: %v", name, err)
		}
		if g.Inputs != fp.LiveInElems || g.Outputs != fp.LiveOutElems {
			t.Errorf("%s: cdag inputs/outputs %d/%d vs footprint live-in/out %d/%d",
				name, g.Inputs, g.Outputs, fp.LiveInElems, fp.LiveOutElems)
		}
		if g.Vertices <= 0 || g.Edges < g.Vertices {
			t.Errorf("%s: degenerate cdag %+v", name, g)
		}
	}
}

// TestBoundSoundVsMeasured: the whole point — on real kernels, at both
// full and scaled capacities, the best bound never exceeds measured
// slow-memory traffic.
func TestBoundSoundVsMeasured(t *testing.T) {
	progs := map[string]*ir.Program{
		"mm":    kernels.MatmulJKI(48),
		"conv":  kernels.Convolution(20000),
		"dmxpy": kernels.Dmxpy(96),
		"fig6":  kernels.Fig6Original(48),
		"fig7":  kernels.Fig7Original(4096),
	}
	specs := []machine.Spec{
		machine.Origin2000(),
		machine.Scaled(machine.Origin2000(), 256),
		machine.Exemplar(),
		machine.Scaled(machine.Exemplar(), 256),
	}
	for name, p := range progs {
		for _, spec := range specs {
			reps, err := balance.Measure(context.Background(), p, []machine.Spec{spec}, balance.Options{})
			if err != nil {
				t.Fatalf("%s on %s: measure: %v", name, spec.Name, err)
			}
			rep := reps[0]
			a, err := bounds.Analyze(context.Background(), p, bounds.FastCapacity(spec), exec.Limits{})
			if err != nil {
				t.Fatalf("%s on %s: bounds: %v", name, spec.Name, err)
			}
			if a.Best.Bytes <= 0 {
				t.Errorf("%s on %s: no finite bound", name, spec.Name)
			}
			if a.Best.Bytes > rep.MemoryBytes {
				t.Errorf("%s on %s: bound %d B exceeds measured %d B (kind %s)",
					name, spec.Name, a.Best.Bytes, rep.MemoryBytes, a.Best.Kind)
			}
			if gap := bounds.Gap(rep.MemoryBytes, a.Best); gap < 1 {
				t.Errorf("%s on %s: gap %.3f < 1", name, spec.Name, gap)
			}
		}
	}
}

// TestAssemble: one footprint and one pebbling structure assemble the
// analysis, and it agrees with the one-call Analyze.
func TestAssemble(t *testing.T) {
	p := kernels.MatmulJKI(64)
	spec := machine.Scaled(machine.Origin2000(), 1024)
	s := bounds.FastCapacity(spec)
	fp, err := bounds.ComputeFootprint(context.Background(), p, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}

	full := bounds.Assemble(p.Name, s, fp, bounds.ComputePebble(p))
	if full.Pebbling == nil {
		t.Fatalf("scaled matmul should carry a pebbling bound: %+v", full)
	}
	if want := max(full.Pebbling.Bytes, full.Compulsory.Bytes); full.Best.Bytes != want {
		t.Fatalf("best %d is not the max of pebbling %d and compulsory %d",
			full.Best.Bytes, full.Pebbling.Bytes, full.Compulsory.Bytes)
	}

	direct, err := bounds.Analyze(context.Background(), p, s, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Best.Bytes != full.Best.Bytes || direct.Compulsory.Bytes != full.Compulsory.Bytes {
		t.Fatalf("assembled %+v differs from direct %+v", full, direct)
	}
}

// TestGapEdgeCases: zero bounds yield 0 ("no information"), never Inf,
// so JSON marshalling stays valid.
func TestGapEdgeCases(t *testing.T) {
	if g := bounds.Gap(1000, bounds.Bound{}); g != 0 {
		t.Errorf("gap with zero bound = %v, want 0", g)
	}
	if g := bounds.Gap(1000, bounds.Bound{Bytes: 500}); g != 2 {
		t.Errorf("gap = %v, want 2", g)
	}
	if g := bounds.Gap(-1, bounds.Bound{Bytes: 500}); g != 0 {
		t.Errorf("gap with negative measurement = %v, want 0", g)
	}
}

// TestFastCapacity sums cache levels.
func TestFastCapacity(t *testing.T) {
	if got, want := bounds.FastCapacity(machine.Origin2000()), int64(32<<10)+int64(4<<20); got != want {
		t.Errorf("Origin2000 capacity %d, want %d", got, want)
	}
	if got, want := bounds.FastCapacity(machine.Exemplar()), int64(1<<20); got != want {
		t.Errorf("Exemplar capacity %d, want %d", got, want)
	}
}

// TestFootprintRespectsLimits: the footprint run honors the step
// budget so a hostile program cannot wedge an analysis worker.
func TestFootprintRespectsLimits(t *testing.T) {
	_, err := bounds.ComputeFootprint(context.Background(), kernels.MatmulJKI(64), exec.Limits{MaxSteps: 10})
	if err == nil || !errors.Is(err, exec.ErrStepBudget) {
		t.Fatalf("want ErrStepBudget, got %v", err)
	}
}
