package transform

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fusion"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/trace"
	"repro/internal/verify"
)

// tracedChecks runs a differential pipeline on p under a tracer and
// counts the verify.differential spans under each step span, keyed by
// the step span's name ("step.fuse", ...).
func tracedChecks(t *testing.T, p *ir.Program, pipeline string) (*Outcome, map[string]int) {
	t.Helper()
	tr := trace.New()
	root := tr.Start(nil, "test")
	ctx := trace.NewContext(context.Background(), root)
	_, out, err := OptimizeVerifiedCtx(ctx, p, Config{Pipeline: pipeline, Verify: verify.ModeDifferential})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if len(out.Skipped) != 0 {
		t.Fatalf("%s: steps rolled back: %v", p.Name, out.Skipped)
	}
	checks := map[string]int{}
	trace.Walk(tr.Tree(), func(n *trace.Node) {
		if !strings.HasPrefix(n.Name, "step.") {
			return
		}
		trace.Walk(n.Children, func(c *trace.Node) {
			if c.Name == "verify.differential" {
				checks[n.Name]++
			}
		})
	})
	return out, checks
}

func passCheckpoints(out *Outcome, pass string) int {
	n := 0
	for _, ps := range out.Passes {
		if ps.Pass == pass {
			n += ps.Checkpoints
		}
	}
	return n
}

func total(counts map[string]int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// TestIdentityFuseIsNoCheckpoint pins the step contract for fusion: a
// partition of singleton groups in program order leaves the program
// unchanged, so the fuse step commits nothing and runs no check.
// matmul's single nest and fig6's four unfusable nests are such cases:
// matmul keeps only store elimination's check, and fig6 checks nothing.
func TestIdentityFuseIsNoCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		p      *ir.Program
		checks int
	}{
		{kernels.MatmulJKI(8), 1},
		{kernels.Fig6Original(8), 0},
	} {
		out, checks := tracedChecks(t, tc.p, DefaultPipelineSpec)
		if got := passCheckpoints(out, "fuse"); got != 0 {
			t.Errorf("%s: fuse committed %d checkpoints, want 0", tc.p.Name, got)
		}
		if checks["step.fuse"] != 0 || total(checks) != tc.checks {
			t.Errorf("%s: differential checks by step %v, want none under fuse and %d in all",
				tc.p.Name, checks, tc.checks)
		}
		for _, a := range out.Actions {
			if a.Pass == "fuse" {
				t.Errorf("%s: identity fusion logged an action: %+v", tc.p.Name, a)
			}
		}
	}
}

// TestFusingPartitionCommits: a partition that fuses nests still
// commits, is checked once, and says what it fused.
func TestFusingPartitionCommits(t *testing.T) {
	out, checks := tracedChecks(t, kernels.Fig7Original(64), "fuse")
	if got := passCheckpoints(out, "fuse"); got != 1 || checks["step.fuse"] != 1 {
		t.Fatalf("fuse committed %d checkpoints under %d checks, want 1 and 1", got, checks["step.fuse"])
	}
	if len(out.Actions) != 1 || out.Actions[0].Note != "3 loops into 1 partitions" {
		t.Fatalf("actions %+v, want one fusion note", out.Actions)
	}
}

// TestReorderingPartitionCommits: singleton groups out of program order
// change the program, so the step commits, is checked, and logs the
// reordering.
func TestReorderingPartitionCommits(t *testing.T) {
	p := lang.MustParse(`
program reorder
const N = 16
array a[N]
array b[N]
scalar s
loop A { for i = 0, N - 1 { a[i] = i } }
loop B { for i = 0, N - 1 { b[i] = 2 * i } }
loop C {
  for i = 0, N - 1 { s = s + a[i] * b[i] }
  print s
}
`)
	defer func(prev func(*fusion.Graph, context.Context) (fusion.Partition, error)) { fusePartition = prev }(fusePartition)
	fusePartition = func(*fusion.Graph, context.Context) (fusion.Partition, error) {
		return fusion.Partition{{1}, {0}, {2}}, nil
	}
	out, checks := tracedChecks(t, p, "fuse")
	if got := passCheckpoints(out, "fuse"); got != 1 || checks["step.fuse"] != 1 {
		t.Fatalf("fuse committed %d checkpoints under %d checks, want 1 and 1", got, checks["step.fuse"])
	}
	if len(out.Actions) != 1 || out.Actions[0].Note != "3 loops reordered" {
		t.Fatalf("actions %+v, want one reordering note", out.Actions)
	}
}

// TestScalarizeNothingPromotedIsNoCheckpoint: scalarize follows the
// same contract: a nest with no repeated element commits nothing and
// runs no check, and one with a repeated element commits once.
func TestScalarizeNothingPromotedIsNoCheckpoint(t *testing.T) {
	p := lang.MustParse(`
program scal
const N = 16
array a[N]
array b[N]
array c[N]
loop Copy { for i = 0, N - 1 { b[i] = a[i] + 1 } }
loop Square { for i = 0, N - 1 { c[i] = a[i] * a[i] } }
loop Out { print b[0] + c[N-1] }
`)
	out, checks := tracedChecks(t, p, "scalarize:Copy")
	if out.Checkpoints != 0 || len(out.Actions) != 0 || total(checks) != 0 {
		t.Fatalf("nothing to promote: %d checkpoints, actions %+v, checks %v; want none",
			out.Checkpoints, out.Actions, checks)
	}
	out, checks = tracedChecks(t, p, "scalarize:Square")
	if out.Checkpoints != 1 || checks["step.scalarize"] != 1 {
		t.Fatalf("one group to promote: %d checkpoints under checks %v, want 1 and 1", out.Checkpoints, checks)
	}
}
