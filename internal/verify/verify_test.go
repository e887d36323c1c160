package verify

import (
	"context"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/kernels"
)

func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeOff, ModeStructural, ModeDifferential} {
		got, err := ParseMode(m.String())
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("ParseMode(%q) = %v, want %v", m.String(), got, m)
		}
	}
	aliases := map[string]Mode{"": ModeOff, "none": ModeOff, "struct": ModeStructural, "DIFF": ModeDifferential}
	for s, want := range aliases {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode accepted bogus mode")
	}
}

// oob builds for i = 0, n-1 { a[i+1] = i }: subscript range [1,n],
// one past the extent.
func oob() *ir.Program {
	p := ir.NewProgram("oob").DeclareConst("n", 8)
	p.DeclareArray("a", 8)
	p.AddNest("l1",
		ir.Loop("i", ir.N(0), ir.SubE(ir.V("n"), ir.N(1)),
			ir.Let(ir.At("a", ir.AddE(ir.V("i"), ir.N(1))), ir.V("i"))))
	return p
}

func TestStructuralCatchesStaticOOB(t *testing.T) {
	err := Structural(oob())
	if err == nil {
		t.Fatal("Structural accepted a statically out-of-bounds subscript")
	}
	if !strings.Contains(err.Error(), "outside extent") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestStructuralGuardRefinement(t *testing.T) {
	// for i = 0, n-1 { if i >= 1 { a[i-1] = i } }: the raw range of
	// i-1 is [-1,n-2], but the guard restricts it to [0,n-2].
	p := ir.NewProgram("guarded").DeclareConst("n", 8)
	p.DeclareArray("a", 8)
	p.AddNest("l1",
		ir.Loop("i", ir.N(0), ir.SubE(ir.V("n"), ir.N(1)),
			ir.When(ir.CmpE(ir.Ge, ir.V("i"), ir.N(1)),
				ir.Let(ir.At("a", ir.SubE(ir.V("i"), ir.N(1))), ir.V("i")))))
	if err := Structural(p); err != nil {
		t.Fatalf("guard-refined stencil rejected: %v", err)
	}

	// The else-branch of i <= n-2 must also refine: there i == n-1,
	// so a[i] is fine but a[i+1] must be flagged.
	q := ir.NewProgram("guarded2").DeclareConst("n", 8)
	q.DeclareArray("a", 8)
	q.AddNest("l1",
		ir.Loop("i", ir.N(0), ir.SubE(ir.V("n"), ir.N(1)),
			ir.WhenElse(ir.CmpE(ir.Le, ir.V("i"), ir.SubE(ir.V("n"), ir.N(2))),
				[]ir.Stmt{ir.Let(ir.At("a", ir.AddE(ir.V("i"), ir.N(1))), ir.V("i"))},
				[]ir.Stmt{ir.Let(ir.At("a", ir.V("i")), ir.V("i"))})))
	if err := Structural(q); err != nil {
		t.Fatalf("then-branch a[i+1] under i <= n-2 rejected: %v", err)
	}

	r := ir.NewProgram("guarded3").DeclareConst("n", 8)
	r.DeclareArray("a", 8)
	r.AddNest("l1",
		ir.Loop("i", ir.N(0), ir.SubE(ir.V("n"), ir.N(1)),
			ir.WhenElse(ir.CmpE(ir.Le, ir.V("i"), ir.SubE(ir.V("n"), ir.N(2))),
				[]ir.Stmt{ir.Let(ir.At("a", ir.V("i")), ir.V("i"))},
				[]ir.Stmt{ir.Let(ir.At("a", ir.AddE(ir.V("i"), ir.N(1))), ir.V("i"))})))
	if err := Structural(r); err == nil {
		t.Fatal("else-branch a[i+1] with i == n-1 accepted")
	}
}

func TestStructuralSkipsEmptyLoops(t *testing.T) {
	// for i = 5, 4 { a[99] = 0 } never executes; the checker must not
	// flag its body.
	p := ir.NewProgram("empty")
	p.DeclareArray("a", 8)
	p.AddNest("l1",
		ir.Loop("i", ir.N(5), ir.N(4),
			ir.Let(ir.At("a", ir.N(99)), ir.N(0))))
	if err := Structural(p); err != nil {
		t.Fatalf("statically empty loop body flagged: %v", err)
	}
}

func TestStructuralAcceptsAllKernels(t *testing.T) {
	for _, p := range testKernels(t) {
		if err := Structural(p); err != nil {
			t.Errorf("kernel %s rejected: %v", p.Name, err)
		}
	}
}

// testKernels builds every kernel in the package at small sizes.
func testKernels(t *testing.T) []*ir.Program {
	t.Helper()
	ps := []*ir.Program{
		kernels.Sec21Write(64), kernels.Sec21Read(64), kernels.Sec21Pair(64),
		kernels.Fig7Original(24), kernels.Fig8Workload(16),
		kernels.Fig6Original(24), kernels.Fig6Fused(24), kernels.Fig6ShrunkPeeled(24),
		kernels.Convolution(32), kernels.Dmxpy(12), kernels.MatmulJKI(8),
		kernels.MustMatmulBlocked(8, 4), kernels.MustFFT(16),
		kernels.SP(8), kernels.Sweep3D(6, 4),
	}
	for _, name := range kernels.StrideKernelNames {
		ps = append(ps, kernels.MustStrideKernel(name, 64))
	}
	return ps
}

// checkPair compares two programs over every input vector the
// original runs on, as the pass manager does for one checkpoint.
func checkPair(orig, xform *ir.Program, tol float64) error {
	ctx := context.Background()
	refs, err := BaselineCtx(ctx, orig, exec.Limits{})
	if err != nil {
		return err
	}
	return DifferentialAgainstCtx(ctx, refs, xform, tol, exec.Limits{})
}

func TestDifferentialEquivalentPair(t *testing.T) {
	// Fig6Original and Fig6Fused are the paper's worked example of a
	// semantics-preserving rewrite.
	if err := checkPair(kernels.Fig6Original(24), kernels.Fig6Fused(24), 0); err != nil {
		t.Fatalf("equivalent pair diverged: %v", err)
	}
}

func TestDifferentialDetectsDivergence(t *testing.T) {
	mk := func(scale float64) *ir.Program {
		p := ir.NewProgram("div").DeclareConst("n", 8)
		p.DeclareArray("a", 8)
		p.AddNest("l1",
			ir.Loop("i", ir.N(0), ir.SubE(ir.V("n"), ir.N(1)),
				ir.Let(ir.At("a", ir.V("i")), ir.MulE(ir.V("i"), ir.N(scale)))),
			ir.Loop("i", ir.N(0), ir.SubE(ir.V("n"), ir.N(1)),
				ir.Show(ir.At("a", ir.V("i")))))
		return p
	}
	err := checkPair(mk(1), mk(2), 0)
	if err == nil {
		t.Fatal("divergent pair accepted")
	}
	d, ok := err.(*Divergence)
	if !ok {
		t.Fatalf("want *Divergence, got %T: %v", err, err)
	}
	// a[0] = 0 in both programs; the first diverging print is index 1.
	if d.Kind != "print" || d.Index != 1 {
		t.Fatalf("divergence = %+v, want first diverging print at index 1", d)
	}
}

func TestCompareResultsScalarAndCount(t *testing.T) {
	p := ir.NewProgram("p")
	p.DeclareScalar("s")
	p.AddNest("l1", ir.Let(ir.S("s"), ir.N(1)), ir.Show(ir.N(1)))
	q := ir.NewProgram("q")
	q.DeclareScalar("s")
	q.AddNest("l1", ir.Let(ir.S("s"), ir.N(2)), ir.Show(ir.N(1)))
	err := checkPair(p, q, 0)
	d, ok := err.(*Divergence)
	if !ok || d.Kind != "scalar" || d.Name != "s" {
		t.Fatalf("want scalar divergence on s, got %v", err)
	}

	r := ir.NewProgram("r")
	r.AddNest("l1", ir.Show(ir.N(1)), ir.Show(ir.N(2)))
	err = checkPair(p, r, 0)
	d, ok = err.(*Divergence)
	if !ok || d.Kind != "print-count" {
		t.Fatalf("want print-count divergence, got %v", err)
	}
}
