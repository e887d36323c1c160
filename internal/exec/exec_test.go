package exec

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/sim"
)

func tinyHierarchy() *sim.Hierarchy {
	return sim.MustHierarchy(
		sim.CacheConfig{Name: "L1", Size: 1024, LineSize: 32, Assoc: 2},
		sim.CacheConfig{Name: "L2", Size: 8192, LineSize: 64, Assoc: 2},
	)
}

func run(t *testing.T, src string) (*Result, *sim.Hierarchy) {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	h := tinyHierarchy()
	r, err := Run(p, h)
	if err != nil {
		t.Fatal(err)
	}
	return r, h
}

func TestScalarArithmetic(t *testing.T) {
	r, _ := run(t, `
program t
scalar s
loop L1 {
  s = 1 + 2 * 3 - 4 / 2
  print s
}
`)
	if len(r.Prints) != 1 || r.Prints[0] != 5 {
		t.Fatalf("prints = %v", r.Prints)
	}
}

func TestLoopSumAndFlops(t *testing.T) {
	r, h := run(t, `
program t
array a[10]
scalar s
loop L1 {
  for i = 0, 9 { a[i] = i * 2 }
}
loop L2 {
  for i = 0, 9 { s = s + a[i] }
}
loop L3 { print s }
`)
	if r.Prints[0] != 90 {
		t.Fatalf("sum = %v, want 90", r.Prints[0])
	}
	// Flops: 10 muls + 10 adds = 20.
	if r.Flops != 20 || h.Flops != 20 {
		t.Fatalf("flops = %d/%d, want 20", r.Flops, h.Flops)
	}
}

func TestMemoryTrafficAccounting(t *testing.T) {
	r, h := run(t, `
program t
array a[100]
scalar s
loop L1 {
  for i = 0, 99 { s = s + a[i] }
}
`)
	_ = r
	// 100 8-byte loads cross the register channel.
	if h.RegLoadBytes != 800 || h.RegStoreBytes != 0 {
		t.Fatalf("reg traffic %d/%d", h.RegLoadBytes, h.RegStoreBytes)
	}
	// 800 bytes of array pulled through memory (aligned to lines).
	if h.MemoryBytes() != 832 { // 800B spans 13 64-byte L2 lines = 832
		t.Fatalf("memory bytes = %d", h.MemoryBytes())
	}
}

func TestColumnMajorLayout(t *testing.T) {
	// a[i,j] with i inner must be stride-1: traffic == footprint.
	_, h := run(t, `
program t
const N = 32
array a[N,N]
scalar s
loop L1 {
  for j = 0, N-1 {
    for i = 0, N-1 { s = s + a[i,j] }
  }
}
`)
	// 32*32*8 = 8192 bytes, line-aligned: exactly 8192 from memory.
	if h.MemoryBytes() != 8192 {
		t.Fatalf("memory bytes = %d, want 8192 (stride-1 column-major)", h.MemoryBytes())
	}
}

func TestRowTraversalWastesBandwidth(t *testing.T) {
	// Traversing j inner (stride N) with a cache too small for the
	// working set must move much more than the footprint.
	src := `
program t
const N = 64
array a[N,N]
scalar s
loop L1 {
  for i = 0, N-1 {
    for j = 0, N-1 { s = s + a[i,j] }
  }
}
`
	p := lang.MustParse(src)
	h := tinyHierarchy() // 8KB L2 < 32KB array
	if _, err := Run(p, h); err != nil {
		t.Fatal(err)
	}
	footprint := int64(64 * 64 * 8)
	if h.MemoryBytes() < 4*footprint {
		t.Fatalf("strided traversal moved %d bytes; want >> footprint %d", h.MemoryBytes(), footprint)
	}
}

func TestIfElseBranches(t *testing.T) {
	r, _ := run(t, `
program t
array b[4]
loop L1 {
  for j = 0, 3 {
    if j <= 1 { b[j] = 1 } else { b[j] = 2 }
  }
}
loop L2 { print b[0] + b[1] + b[2] + b[3] }
`)
	if r.Prints[0] != 6 {
		t.Fatalf("got %v, want 6", r.Prints[0])
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand of && with false left must not execute: here it
	// would divide by zero... division is non-trapping in float; use an
	// array bound violation instead to detect evaluation.
	p := ir.NewProgram("t")
	p.DeclareArray("a", 2)
	p.DeclareScalar("s")
	p.AddNest("L1",
		ir.Let(ir.S("s"), &ir.Bin{Op: ir.And,
			L: ir.N(0),
			R: ir.At("a", ir.N(99))})) // out of bounds if evaluated
	if _, err := Run(p, nil); err != nil {
		t.Fatalf("short-circuit failed: %v", err)
	}
}

func TestStepLoop(t *testing.T) {
	r, _ := run(t, `
program t
scalar s
loop L1 {
  for i = 0, 9 step 3 { s = s + 1 }
}
loop L2 { print s }
`)
	if r.Prints[0] != 4 { // i = 0,3,6,9
		t.Fatalf("iterations = %v, want 4", r.Prints[0])
	}
}

func TestEmptyLoopRange(t *testing.T) {
	r, _ := run(t, `
program t
scalar s
loop L1 {
  for i = 5, 4 { s = s + 1 }
  print s
}
`)
	if r.Prints[0] != 0 {
		t.Fatal("empty range should not iterate")
	}
}

func TestTriangularLoop(t *testing.T) {
	r, _ := run(t, `
program t
scalar s
loop L1 {
  for i = 0, 3 {
    for j = 0, i { s = s + 1 }
  }
  print s
}
`)
	if r.Prints[0] != 10 { // 1+2+3+4
		t.Fatalf("got %v, want 10", r.Prints[0])
	}
}

func TestOutOfBoundsCaught(t *testing.T) {
	p := lang.MustParse(`
program t
array a[4]
loop L1 { a[4] = 1 }
`)
	if _, err := Run(p, nil); err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("err = %v", err)
	}
}

func TestNegativeIndexCaught(t *testing.T) {
	p := lang.MustParse(`
program t
array a[4]
loop L1 {
  for i = 0, 0 { a[i-1] = 1 }
}
`)
	if _, err := Run(p, nil); err == nil {
		t.Fatal("negative index not caught")
	}
}

func TestIntrinsics(t *testing.T) {
	r, _ := run(t, `
program t
scalar s
loop L1 {
  print f(2, 4)
  print g(4, 1)
  print sqrt(16)
  print abs(0-3)
  print min(2, 1)
  print max(2, 1)
  print mod(7, 3)
}
`)
	want := []float64{2, 4, 4, 3, 1, 2, 1}
	for i, w := range want {
		if math.Abs(r.Prints[i]-w) > 1e-12 {
			t.Fatalf("intrinsic %d = %v, want %v", i, r.Prints[i], w)
		}
	}
}

// callProgram builds "s = fn(args...)" directly in IR: the parser
// validates, so it would reject the bad calls these tests need.
func callProgram(fn string, args ...ir.Expr) *ir.Program {
	p := ir.NewProgram("t")
	p.DeclareScalar("s")
	p.AddNest("L1", ir.Let(ir.S("s"), ir.CallE(fn, args...)))
	return p
}

func TestUnknownIntrinsic(t *testing.T) {
	if _, err := Run(callProgram("zap", ir.N(1)), nil); err == nil || !strings.Contains(err.Error(), "zap") {
		t.Fatalf("err = %v", err)
	}
	if _, err := lang.Parse("program t\nscalar s\nloop L1 { if 0 { s = zap(1) } }"); err == nil {
		t.Fatal("parser accepted an unknown intrinsic in dead code")
	}
}

func TestIntrinsicArity(t *testing.T) {
	if _, err := Run(callProgram("f", ir.N(1)), nil); err == nil {
		t.Fatal("arity error not caught")
	}
}

func TestReadInputDeterministicStream(t *testing.T) {
	src := `
program t
array a[8]
scalar s
loop L1 {
  for i = 0, 7 { read a[i] }
}
loop L2 {
  for i = 0, 7 { s = s + a[i] }
  print s
}
`
	r1, _ := run(t, src)
	r2, _ := run(t, src)
	if r1.Prints[0] != r2.Prints[0] {
		t.Fatal("input stream not deterministic")
	}
	if r1.Prints[0] == 0 {
		t.Fatal("input stream looks degenerate (all zeros)")
	}
}

func TestReadStreamIndependentOfTarget(t *testing.T) {
	// Reading into an array vs a scalar in the same order yields the
	// same values — the property storage transformations rely on.
	a := lang.MustParse(`
program t
array a[4]
scalar s
loop L1 {
  for i = 0, 3 { read a[i]
    s = s + a[i] }
  print s
}
`)
	b := lang.MustParse(`
program t
scalar tmp
scalar s
loop L1 {
  for i = 0, 3 { read tmp
    s = s + tmp }
  print s
}
`)
	ra, err := Run(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Prints[0] != rb.Prints[0] {
		t.Fatalf("array-read %v != scalar-read %v", ra.Prints[0], rb.Prints[0])
	}
}

func TestScalarInitPreserved(t *testing.T) {
	r, _ := run(t, `
program t
scalar s = 2.5
loop L1 { print s }
`)
	if r.Prints[0] != 2.5 {
		t.Fatal("scalar initializer lost")
	}
}

func TestResultAccessors(t *testing.T) {
	r, _ := run(t, `
program t
array a[3]
scalar s
loop L1 {
  for i = 0, 2 { a[i] = i }
  s = 7
}
`)
	if got := r.Array("a"); len(got) != 3 || got[2] != 2 {
		t.Fatalf("array = %v", got)
	}
	if r.Scalars["s"] != 7 {
		t.Fatalf("scalars = %v", r.Scalars)
	}
	if r.Array("nope") != nil {
		t.Fatal("missing array should be nil")
	}
}

func TestChecksumOrderSensitive(t *testing.T) {
	r1 := &Result{Prints: []float64{1, 2}}
	r2 := &Result{Prints: []float64{2, 1}}
	if r1.Checksum() == r2.Checksum() {
		t.Fatal("checksum must be order-sensitive")
	}
}

func TestNilMachineFunctionalRun(t *testing.T) {
	p := lang.MustParse(`
program t
array a[4]
scalar s
loop L1 {
  for i = 0, 3 { a[i] = i
    s = s + a[i] }
  print s
}
`)
	r, err := Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Prints[0] != 6 {
		t.Fatalf("got %v", r.Prints[0])
	}
}

func TestGuardBetweenArrays(t *testing.T) {
	// Two arrays must not share a cache line: writing all of array a
	// then flushing must not dirty b's lines.
	p := lang.MustParse(`
program t
array a[3]
array b[3]
scalar s
loop L1 {
  for i = 0, 2 { a[i] = 1 }
  for i = 0, 2 { s = s + b[i] }
}
`)
	h := tinyHierarchy()
	if _, err := Run(p, h); err != nil {
		t.Fatal(err)
	}
	// b is only read; a occupies distinct lines; so writebacks stem
	// solely from a: exactly one dirty L1 line (24 bytes < 32).
	if wb := h.LevelStats(0).Writebacks; wb != 1 {
		t.Fatalf("L1 writebacks = %d, want 1 (arrays share a line?)", wb)
	}
}
