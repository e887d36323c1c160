package transform

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/trace"
	"repro/internal/verify"
)

// TestSecondVectorCatchesDroppedIncomingRead injects the miscompile
// zero-filled arrays hide: fig7's "res[i] = res[i] + data[i]" loses its
// read of res. On vector 0 res starts at zero, so the interpreter sees
// no difference; vector 1 seeds res, and the pipeline's two-vector
// check must roll the step back with a Divergence on that vector.
func TestSecondVectorCatchesDroppedIncomingRead(t *testing.T) {
	p := kernels.Fig7Original(16)
	dropRead := func(cur *ir.Program) (*ir.Program, []Action, error) {
		q := cur.Clone()
		for _, n := range q.Nests {
			if n.Label == "Update" {
				n.Body[0].(*ir.For).Body[0].(*ir.Assign).RHS = ir.At("data", ir.V("i"))
			}
		}
		return q, []Action{{Pass: "drop-read"}}, nil
	}
	bad, _, _ := dropRead(p)
	if err := verify.CompareResults(mustRun(t, p), mustRun(t, bad), 0); err != nil {
		t.Fatalf("vector 0 alone should accept the dropped read: %v", err)
	}

	m := newManager(context.Background(), p, Config{Verify: verify.ModeDifferential})
	if m.runStep("drop-read", "Update", "res", dropRead) {
		t.Fatal("dropped read accepted by the two-vector check")
	}
	var d *verify.Divergence
	if len(m.out.Skipped) != 1 || !errors.As(m.out.Skipped[0], &d) {
		t.Fatalf("skipped = %v, want one entry wrapping a Divergence", m.out.Skipped)
	}
	if d.Vector != 1 {
		t.Fatalf("divergence on vector %d, want 1: %v", d.Vector, d)
	}
	if m.cur.String() != p.String() {
		t.Fatal("known-good program changed by a rolled-back step")
	}
}

// TestBaselineDropsFailingVector: a vector on which the original itself
// fails is dropped with a note, and the checks go on over vector 0; only
// a vector-0 failure downgrades to structural verification.
func TestBaselineDropsFailingVector(t *testing.T) {
	// a[0] is 0 on vector 0 but a non-integer on vector 1, where the
	// subscript b[s] fails.
	p := lang.MustParse(`
program drop
array a[4]
array b[4]
scalar s
loop L1 {
  s = a[0]
  b[s] = 1
  print b[0]
}
`)
	m := newManager(context.Background(), p, Config{Verify: verify.ModeDifferential})
	if m.out.Mode != verify.ModeDifferential || len(m.baseline) != 1 {
		t.Fatalf("mode %v with %d reference vectors, want differential with 1", m.out.Mode, len(m.baseline))
	}
	if len(m.out.Notes) != 1 || !strings.Contains(m.out.Notes[0], "comparing over 1 of 2 input vectors") {
		t.Fatalf("notes = %q, want one vector-drop note", m.out.Notes)
	}
	if !m.runStep("same", "", "", func(cur *ir.Program) (*ir.Program, []Action, error) {
		return cur.Clone(), nil, nil
	}) {
		t.Fatalf("identity step rejected over the kept vector: %v", m.out.Skipped)
	}

	// A failure on vector 0 leaves nothing to compare against.
	q := lang.MustParse("program bad\narray a[4]\nloop L1 { a[5] = 1 }")
	m = newManager(context.Background(), q, Config{Verify: verify.ModeDifferential})
	if m.out.Mode != verify.ModeStructural || m.baseline != nil {
		t.Fatalf("mode %v, want a downgrade to structural", m.out.Mode)
	}
}

// TestDifferentialRunsCompiledEngine traces a differential pipeline on
// fig7: every execution is on the compiled engine, and each of the
// baseline and the differential checks runs once per input vector.
func TestDifferentialRunsCompiledEngine(t *testing.T) {
	tr := trace.New()
	root := tr.Start(nil, "test")
	ctx := trace.NewContext(context.Background(), root)
	_, out, err := OptimizeVerifiedCtx(ctx, kernels.Fig7Original(64), Config{Options: All(), Verify: verify.ModeDifferential})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if out.Checkpoints == 0 {
		t.Fatal("nothing committed; the check below would be vacuous")
	}
	runs, checks := 0, 0
	trace.Walk(tr.Tree(), func(n *trace.Node) {
		switch n.Name {
		case "exec.run":
			runs++
			if n.Attrs["engine"] != "compiled" {
				t.Errorf("exec.run on engine %v, want compiled", n.Attrs["engine"])
			}
			if _, ok := n.Attrs["steps"]; !ok {
				t.Errorf("exec.run span without steps: %v", n.Attrs)
			}
		case "verify.differential":
			checks++
		}
	})
	if want := verify.Vectors * (1 + checks); runs != want {
		t.Fatalf("%d exec.run spans for %d differential checks, want %d", runs, checks, want)
	}
}

// TestStoreElimKeepsRewrittenElements pins the store-elimination
// legality rule. sweep3d's edgeI[j] and edgeJ[i] are rewritten on every
// angle, so their reads consume the previous angle's stores, and
// eliminating the stores changes the answer; flux, a dead accumulator
// whose only reads feed its own store, still loses its writeback.
func TestStoreElimKeepsRewrittenElements(t *testing.T) {
	p := kernels.FillArrays(kernels.Sweep3DCheck(8, 2))
	want := mustRun(t, p)
	for _, mode := range []verify.Mode{verify.ModeOff, verify.ModeStructural, verify.ModeDifferential} {
		q, _, err := OptimizeVerified(p, Config{Options: All(), Verify: mode})
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CompareResults(want, mustRun(t, q), 0); err != nil {
			t.Errorf("verify %v: optimized sweep3d diverged: %v", mode, err)
		}
	}

	_, out, err := OptimizeVerified(kernels.Sweep3D(8, 2), Config{Options: All()})
	if err != nil {
		t.Fatal(err)
	}
	elim := map[string]bool{}
	for _, a := range out.Actions {
		if a.Pass == "store-elim" && !a.Skipped {
			elim[a.Array] = true
		}
	}
	if elim["edgeI"] || elim["edgeJ"] || !elim["flux"] {
		t.Fatalf("store-elim applied to %v, want flux but neither edgeI nor edgeJ", elim)
	}
}

// TestRegroupOfIncomingArraysRollsBack pins a deliberate consequence of
// seeding vector 1 by array name: regrouping renames a and b, so a
// program that reads their incoming contents sees different values
// after the rewrite and the step rolls back with a vector-1
// Divergence. A program that writes a and b before reading them
// observes no incoming contents, and its regrouping commits.
func TestRegroupOfIncomingArraysRollsBack(t *testing.T) {
	cfg := Config{Pipeline: "regroup:a+b", Verify: verify.ModeDifferential}
	reads := lang.MustParse(`
program reads
array a[8]
array b[8]
scalar s
loop L1 {
  for i = 0, 7 {
    s = s + a[i] * b[i]
  }
  print s
}
`)
	q, out, err := OptimizeVerified(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var d *verify.Divergence
	if len(out.Skipped) != 1 || !errors.As(out.Skipped[0], &d) || d.Vector != 1 {
		t.Fatalf("skipped = %v, want one vector-1 Divergence", out.Skipped)
	}
	if q.String() != reads.String() {
		t.Fatal("rolled-back regrouping changed the program")
	}

	writes := lang.MustParse(`
program writes
array a[8]
array b[8]
scalar s
loop L1 {
  for i = 0, 7 {
    a[i] = i
    b[i] = 2 * i
  }
  for i = 0, 7 {
    s = s + a[i] * b[i]
  }
  print s
}
`)
	q, out, err = OptimizeVerified(writes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Skipped) != 0 || out.Checkpoints != 1 || q.ArrayByName("a") != nil {
		t.Fatalf("regrouping of written-first arrays not committed: skipped %v, %d checkpoints", out.Skipped, out.Checkpoints)
	}
}
