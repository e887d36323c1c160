package transform

import (
	"context"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/verify"
)

// TestOptimizeVerifiedCtxEmitsSpans runs the default verified pipeline
// under a tracer and checks the span taxonomy the docs promise: one
// pipeline root, one baseline run, one span per pass attempt, a
// verdict-carrying span per step, analysis spans, and
// differential-verification spans.
func TestOptimizeVerifiedCtxEmitsSpans(t *testing.T) {
	p := twoTemps(8)
	tr := trace.New()
	root := tr.Start(nil, "test")
	ctx := trace.NewContext(context.Background(), root)
	if _, _, err := OptimizeVerifiedCtx(ctx, p, Config{Options: All(), Verify: verify.ModeDifferential}); err != nil {
		t.Fatal(err)
	}
	root.End()

	counts := map[string]int{}
	steps := 0
	trace.Walk(tr.Tree(), func(n *trace.Node) {
		counts[n.Name]++
		if strings.HasPrefix(n.Name, "step.") {
			steps++
			if _, ok := n.Attrs["verdict"]; !ok {
				t.Errorf("step span %q has no verdict attr: %v", n.Name, n.Attrs)
			}
		}
	})

	if counts["transform.optimize"] != 1 || counts["transform.baseline"] != 1 {
		t.Errorf("pipeline roots: optimize=%d baseline=%d, want 1 and 1",
			counts["transform.optimize"], counts["transform.baseline"])
	}
	// One span per pass attempt of the default pipeline.
	for _, pass := range []string{"pass.fuse", "pass.reduce-storage", "pass.store-elim"} {
		if counts[pass] != 1 {
			t.Errorf("%s spans = %d, want 1", pass, counts[pass])
		}
	}
	if steps == 0 {
		t.Error("no step spans recorded")
	}
	// Every analysis computation is a span; deps and liveness certainly
	// ran for this pipeline.
	for _, a := range []string{"analysis.deps", "analysis.liveness"} {
		if counts[a] == 0 {
			t.Errorf("no %s span", a)
		}
	}
	if counts["verify.differential"] == 0 {
		t.Error("no differential-verification span")
	}
}

// TestOptimizeUntracedContext pins the disabled fast path: a plain
// context must flow through the fully instrumented pipeline without a
// tracer and without panicking on any nil span.
func TestOptimizeUntracedContext(t *testing.T) {
	p := twoTemps(8)
	if _, _, err := OptimizeVerifiedCtx(context.Background(), p, Config{Options: All(), Verify: verify.ModeDifferential}); err != nil {
		t.Fatal(err)
	}
}
