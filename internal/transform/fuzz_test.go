package transform

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/verify"
)

// This file fuzzes the whole compiler pipeline: random loop-chain
// programs are pushed through Optimize(All()) and the transformed
// program must compute the same printed results as the original. The
// interpreter is the oracle; any divergence is a miscompilation.

// randProgram generates a random but valid producer/consumer loop chain
// over nArr arrays, with guarded stencil reads, scalar temporaries,
// reductions and prints.
func randProgram(rng *rand.Rand, id int) *ir.Program {
	n := 16 + rng.Intn(48)
	p := ir.NewProgram(fmt.Sprintf("fuzz%d", id))
	p.DeclareConst("N", int64(n))
	nArr := 2 + rng.Intn(4)
	names := make([]string, nArr)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
		p.DeclareArray(names[i], n)
	}
	p.DeclareScalar("acc")

	iv := ir.V("i")
	hi := ir.SubE(ir.V("N"), ir.N(1))

	// randExpr builds an expression reading from the given arrays.
	var randExpr func(depth int, readable []string, allowPrev bool) ir.Expr
	randExpr = func(depth int, readable []string, allowPrev bool) ir.Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			switch rng.Intn(3) {
			case 0:
				return ir.N(float64(rng.Intn(9)+1) / 4)
			case 1:
				return iv
			default:
				if len(readable) == 0 {
					return ir.N(1)
				}
				arr := readable[rng.Intn(len(readable))]
				return ir.At(arr, ir.V("i"))
			}
		}
		switch rng.Intn(4) {
		case 0:
			return ir.AddE(randExpr(depth-1, readable, allowPrev), randExpr(depth-1, readable, allowPrev))
		case 1:
			return ir.SubE(randExpr(depth-1, readable, allowPrev), randExpr(depth-1, readable, allowPrev))
		case 2:
			return ir.MulE(randExpr(depth-1, readable, allowPrev), ir.N(float64(rng.Intn(3)+1)/2))
		default:
			return ir.CallE("abs", randExpr(depth-1, readable, allowPrev))
		}
	}

	// Build a chain: each loop writes one array from earlier arrays.
	written := []string{}
	nLoops := 2 + rng.Intn(4)
	for li := 0; li < nLoops && li < nArr; li++ {
		target := names[li]
		readable := append([]string(nil), written...)
		var body []ir.Stmt
		switch {
		case li == 0 || len(readable) == 0:
			body = append(body, ir.Input(ir.At(target, ir.V("i"))))
		case rng.Intn(3) == 0 && len(readable) > 0:
			// Guarded stencil consuming the previous array at i-1.
			src := readable[rng.Intn(len(readable))]
			body = append(body, ir.WhenElse(ir.CmpE(ir.Ge, iv, ir.N(1)),
				[]ir.Stmt{ir.Let(ir.At(target, ir.V("i")),
					ir.AddE(ir.At(src, ir.V("i")), ir.At(src, ir.SubE(ir.V("i"), ir.N(1)))))},
				[]ir.Stmt{ir.Let(ir.At(target, ir.V("i")), ir.At(src, ir.V("i")))}))
		default:
			body = append(body, ir.Let(ir.At(target, ir.V("i")), randExpr(2, readable, false)))
		}
		p.AddNest(fmt.Sprintf("L%d", li),
			ir.Loop("i", ir.N(0), hi, body...))
		written = append(written, target)
	}
	// Final reduction over the last written array.
	last := written[len(written)-1]
	p.AddNest("Reduce",
		ir.Let(ir.S("acc"), ir.N(0)),
		ir.Loop("i", ir.N(0), hi, ir.Acc(ir.S("acc"), ir.At(last, ir.V("i")))),
		ir.Show(ir.V("acc")))
	return p
}

func TestPipelineFuzzEquivalence(t *testing.T) {
	count := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randProgram(rng, count)
		count++
		if err := p.Validate(); err != nil {
			t.Logf("generator produced invalid program: %v", err)
			return false
		}
		orig, err := exec.Run(p, nil)
		if err != nil {
			t.Logf("original failed: %v\n%s", err, p)
			return false
		}
		q, _, err := Optimize(p, All())
		if err != nil {
			t.Logf("pipeline failed: %v\n%s", err, p)
			return false
		}
		opt, err := exec.Run(q, nil)
		if err != nil {
			t.Logf("optimized failed: %v\n%s", err, q)
			return false
		}
		if len(orig.Prints) != len(opt.Prints) {
			t.Logf("print count: %d vs %d", len(orig.Prints), len(opt.Prints))
			return false
		}
		for i := range orig.Prints {
			a, b := orig.Prints[i], opt.Prints[i]
			if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
				t.Logf("print %d: %v vs %v\n--- original ---\n%s--- optimized ---\n%s",
					i, a, b, p, q)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestFusionOnlyFuzzEquivalence restricts the pipeline to fusion so a
// failure isolates the fusion pass.
func TestFusionOnlyFuzzEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randProgram(rng, 0)
		orig, err := exec.Run(p, nil)
		if err != nil {
			return false
		}
		q, _, err := Optimize(p, Options{Fuse: true})
		if err != nil {
			return false
		}
		opt, err := exec.Run(q, nil)
		if err != nil {
			t.Logf("fused program failed: %v\n%s", err, q)
			return false
		}
		for i := range orig.Prints {
			if math.Abs(orig.Prints[i]-opt.Prints[i]) > 1e-9*(1+math.Abs(orig.Prints[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineFuzzTrafficNeverWorse checks a weaker but universal
// property: the optimized program never moves more memory than the
// original (the pipeline only applies profitable transformations).
func TestPipelineFuzzTrafficNeverWorse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randProgram(rng, 1)
		q, _, err := Optimize(p, All())
		if err != nil {
			return false
		}
		return memBytesOf(p) >= memBytesOf(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func memBytesOf(p *ir.Program) int64 {
	h := tinyHierarchyForFuzz()
	if _, err := exec.Run(p, h); err != nil {
		return -1
	}
	return h.MemoryBytes()
}

// tinyHierarchyForFuzz builds a small hierarchy for traffic checks.
func tinyHierarchyForFuzz() *sim.Hierarchy {
	return sim.MustHierarchy(
		sim.CacheConfig{Name: "L1", Size: 512, LineSize: 32, Assoc: 2},
		sim.CacheConfig{Name: "L2", Size: 4096, LineSize: 64, Assoc: 2},
	)
}

// FuzzOptimize is the native fuzz target behind the CI fuzz step: a
// seed drives the random-program generator, and the verified pipeline
// must optimize cleanly — no errors, no rolled-back passes, and a
// result that is structurally valid and observably equivalent to the
// original. A skip here means a pass produced a divergent or invalid
// program that the verifier had to contain, which is a compiler bug.
func FuzzOptimize(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		p := randProgram(rng, 0)
		want, err := exec.Run(p, nil)
		if err != nil {
			t.Skipf("generator produced a non-running program: %v", err)
		}
		q, out, err := OptimizeVerified(p, Config{Options: All(), Verify: verify.ModeDifferential})
		if err != nil {
			t.Fatalf("pipeline failed: %v\n%s", err, p)
		}
		for _, pe := range out.Skipped {
			t.Errorf("pass rolled back: %v\n%s", pe, p)
		}
		if err := verify.Structural(q); err != nil {
			t.Fatalf("optimized program structurally invalid: %v\n%s", err, q)
		}
		got, err := exec.Run(q, nil)
		if err != nil {
			t.Fatalf("optimized program failed: %v\n%s", err, q)
		}
		if err := verify.CompareResults(want, got, 0); err != nil {
			t.Fatalf("%v\n--- original ---\n%s--- optimized ---\n%s", err, p, q)
		}
		// The analysis cache must be invisible: rerunning with
		// memoization disabled has to produce the same program and the
		// same action log. A divergence means a pass over-declared its
		// preserved analyses and consumed a stale result.
		q2, out2, err := optimizeUncached(p, Config{Options: All(), Verify: verify.ModeDifferential})
		if err != nil {
			t.Fatalf("uncached pipeline failed: %v\n%s", err, p)
		}
		if q.String() != q2.String() {
			t.Fatalf("cached and uncached pipelines disagree:\n--- cached ---\n%s--- uncached ---\n%s", q, q2)
		}
		if fmt.Sprint(out.Actions) != fmt.Sprint(out2.Actions) {
			t.Fatalf("cached and uncached action logs disagree:\n%v\n%v", out.Actions, out2.Actions)
		}
	})
}
