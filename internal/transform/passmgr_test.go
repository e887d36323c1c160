package transform

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/verify"
)

// twoTemps builds one nest with two scalar-like temporary arrays, both
// contractible, feeding an output that is printed.
func twoTemps(n int64) *ir.Program {
	p := ir.NewProgram("twotemps").DeclareConst("n", n)
	p.DeclareArray("t1", int(n))
	p.DeclareArray("t2", int(n))
	p.DeclareArray("b", int(n))
	p.AddNest("l1",
		ir.Loop("i", ir.N(0), ir.SubE(ir.V("n"), ir.N(1)),
			ir.Let(ir.At("t1", ir.V("i")), ir.MulE(ir.V("i"), ir.N(3))),
			ir.Let(ir.At("t2", ir.V("i")), ir.AddE(ir.At("t1", ir.V("i")), ir.N(1))),
			ir.Let(ir.At("b", ir.V("i")), ir.MulE(ir.At("t2", ir.V("i")), ir.N(2)))),
		ir.Loop("i", ir.N(0), ir.SubE(ir.V("n"), ir.N(1)),
			ir.Show(ir.At("b", ir.V("i")))))
	return p
}

func mustRun(t *testing.T, p *ir.Program) *exec.Result {
	t.Helper()
	r, err := exec.Run(p, nil)
	if err != nil {
		t.Fatalf("run %s: %v", p.Name, err)
	}
	return r
}

// TestPanickingPassIsContained injects a pass that panics and checks
// the manager converts it into a structured skip, keeping the last
// known-good program untouched.
func TestPanickingPassIsContained(t *testing.T) {
	p := twoTemps(8)
	m := newManager(context.Background(), p, Config{Verify: verify.ModeStructural})
	before := m.cur.String()
	ok := m.runStep("boom", "l1", "t1", func(cur *ir.Program) (*ir.Program, []Action, error) {
		panic("injected fault")
	})
	if ok {
		t.Fatal("panicking step reported success")
	}
	if got := m.cur.String(); got != before {
		t.Fatal("known-good program modified by a panicking pass")
	}
	if len(m.out.Skipped) != 1 {
		t.Fatalf("skipped = %v, want one entry", m.out.Skipped)
	}
	pe := m.out.Skipped[0]
	if !pe.Panicked || pe.Pass != "boom" || pe.Nest != "l1" || pe.Array != "t1" {
		t.Fatalf("PassError = %+v, want panicked boom at l1/t1", pe)
	}
	if !strings.Contains(pe.Error(), "panicked") || !strings.Contains(pe.Error(), "injected fault") {
		t.Fatalf("PassError message %q lacks panic attribution", pe.Error())
	}
	if len(m.out.Actions) != 1 || !m.out.Actions[0].Skipped {
		t.Fatalf("actions = %v, want one skipped action", m.out.Actions)
	}
	// The step is blacklisted: a retry must not re-record the failure.
	if m.runStep("boom", "l1", "t1", func(*ir.Program) (*ir.Program, []Action, error) {
		t.Fatal("blacklisted step re-executed")
		return nil, nil, nil
	}) {
		t.Fatal("blacklisted step reported success")
	}
	if len(m.out.Skipped) != 1 {
		t.Fatalf("blacklisted retry re-recorded: %v", m.out.Skipped)
	}
}

// TestInvalidResultIsRolledBack injects a pass returning a structurally
// broken program and checks it is rejected and rolled back.
func TestInvalidResultIsRolledBack(t *testing.T) {
	p := twoTemps(8)
	m := newManager(context.Background(), p, Config{Verify: verify.ModeStructural})
	ok := m.runStep("bad", "", "", func(cur *ir.Program) (*ir.Program, []Action, error) {
		q := cur.Clone()
		// Reference an undeclared array: fails Validate inside Structural.
		q.Nests[0].Body = append(q.Nests[0].Body,
			ir.Let(ir.At("nosuch", ir.N(0)), ir.N(1)))
		return q, []Action{{Pass: "bad"}}, nil
	})
	if ok {
		t.Fatal("invalid checkpoint accepted")
	}
	if len(m.out.Skipped) != 1 || m.out.Skipped[0].Panicked {
		t.Fatalf("skipped = %+v, want one non-panic entry", m.out.Skipped)
	}
	if err := m.cur.Validate(); err != nil {
		t.Fatalf("known-good program corrupted: %v", err)
	}
	if m.out.Checkpoints != 0 {
		t.Fatalf("checkpoints = %d, want 0", m.out.Checkpoints)
	}
}

// TestDivergentResultIsRolledBack injects a semantics-changing pass
// under differential verification.
func TestDivergentResultIsRolledBack(t *testing.T) {
	p := twoTemps(8)
	want := mustRun(t, p)
	m := newManager(context.Background(), p, Config{Verify: verify.ModeDifferential})
	ok := m.runStep("wrong", "", "", func(cur *ir.Program) (*ir.Program, []Action, error) {
		q := cur.Clone()
		// Change the printed expression: observably different.
		q.Nests[0].Body = append(q.Nests[0].Body, ir.Show(ir.N(42)))
		return q, []Action{{Pass: "wrong"}}, nil
	})
	if ok {
		t.Fatal("divergent checkpoint accepted under differential verification")
	}
	var d *verify.Divergence
	if len(m.out.Skipped) != 1 || !errors.As(m.out.Skipped[0], &d) {
		t.Fatalf("skipped = %+v, want one entry wrapping a Divergence", m.out.Skipped)
	}
	got := mustRun(t, m.cur)
	if err := verify.CompareResults(want, got, 0); err != nil {
		t.Fatalf("rolled-back program diverged from original: %v", err)
	}
}

// TestFixpointBudgetExhaustion runs the storage pass with a one-scan
// budget over a program needing two contractions: the pipeline must
// stop, record the exhaustion, and still return a valid, equivalent
// program.
func TestFixpointBudgetExhaustion(t *testing.T) {
	p := twoTemps(8)
	want := mustRun(t, p)
	defer func(n int) { fixpointScans = n }(fixpointScans)
	fixpointScans = 1
	q, out, err := OptimizeVerified(p, Config{
		Options: Options{ReduceStorage: true},
		Verify:  verify.ModeDifferential,
	})
	if err != nil {
		t.Fatal(err)
	}
	var budgetSkip *PassError
	for _, pe := range out.Skipped {
		if strings.Contains(pe.Cause.Error(), "budget") {
			budgetSkip = pe
		}
	}
	if budgetSkip == nil {
		t.Fatalf("no budget-exhaustion skip recorded; skipped = %v", out.Skipped)
	}
	if budgetSkip.Pass != "reduce-storage" {
		t.Fatalf("budget skip attributed to %q, want reduce-storage", budgetSkip.Pass)
	}
	if out.Checkpoints == 0 {
		t.Fatal("no checkpoint committed before exhaustion")
	}
	if err := verify.CompareResults(want, mustRun(t, q), 0); err != nil {
		t.Fatalf("degraded output diverged: %v", err)
	}
}

// TestUnlimitedBudgetContractsBoth is the control: with default budgets
// both temporaries contract.
func TestUnlimitedBudgetContractsBoth(t *testing.T) {
	q, out, err := OptimizeVerified(twoTemps(8), Config{
		Options: Options{ReduceStorage: true},
		Verify:  verify.ModeDifferential,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Skipped) != 0 {
		t.Fatalf("unexpected skips: %v", out.Skipped)
	}
	contracts := 0
	for _, a := range out.Actions {
		if a.Pass == "contract" {
			contracts++
		}
	}
	if contracts != 2 {
		t.Fatalf("contracted %d arrays, want 2 (actions %v)", contracts, out.Actions)
	}
	for _, a := range q.Arrays {
		if a.Name == "t1" || a.Name == "t2" {
			t.Fatalf("temporary %s survived contraction", a.Name)
		}
	}
}

// TestKernelsDifferentialVerified is the acceptance gate: the full
// pipeline under differential verification over every kernel must
// apply cleanly (no skips) and preserve observable results.
func TestKernelsDifferentialVerified(t *testing.T) {
	progs := []*ir.Program{
		kernels.Sec21Write(64), kernels.Sec21Read(64), kernels.Sec21Pair(64),
		kernels.Fig7Original(24), kernels.Fig8Workload(16),
		kernels.Fig6Original(24), kernels.Fig6Fused(24), kernels.Fig6ShrunkPeeled(24),
		kernels.Convolution(32), kernels.Dmxpy(12), kernels.MatmulJKI(8),
		kernels.MustMatmulBlocked(8, 4), kernels.MustFFT(16),
		kernels.SP(8), kernels.Sweep3D(6, 4),
	}
	for _, name := range kernels.StrideKernelNames {
		progs = append(progs, kernels.MustStrideKernel(name, 64))
	}
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			want := mustRun(t, p)
			q, out, err := OptimizeVerified(p, Config{Options: All(), Verify: verify.ModeDifferential})
			if err != nil {
				t.Fatal(err)
			}
			if out.Mode != verify.ModeDifferential {
				t.Fatalf("mode degraded to %v: %v", out.Mode, out.Notes)
			}
			for _, pe := range out.Skipped {
				t.Errorf("skipped: %v", pe)
			}
			if err := verify.CompareResults(want, mustRun(t, q), 0); err != nil {
				t.Fatalf("optimized %s diverged: %v", p.Name, err)
			}
			if err := verify.Structural(q); err != nil {
				t.Fatalf("optimized %s structurally invalid: %v", p.Name, err)
			}
		})
	}
}

// TestOptionsMatchDefaultPipeline checks that Config.Options (how
// perfbench selects passes) runs exactly what the default pipeline
// string runs.
func TestOptionsMatchDefaultPipeline(t *testing.T) {
	p := twoTemps(8)
	q1, out1, err := OptimizeVerified(p, Config{Pipeline: DefaultPipelineSpec})
	if err != nil {
		t.Fatal(err)
	}
	q2, out2, err := OptimizeVerified(p, Config{Options: All()})
	if err != nil {
		t.Fatal(err)
	}
	if q1.String() != q2.String() {
		t.Fatal("Options and the default pipeline string disagree")
	}
	if fmt.Sprint(out1.Actions) != fmt.Sprint(out2.Actions) {
		t.Fatalf("action logs differ: %v vs %v", out1.Actions, out2.Actions)
	}
}
