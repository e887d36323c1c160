package transform

import (
	"math"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/sim"
)

func trafficOf(t *testing.T, p *ir.Program) int64 {
	t.Helper()
	h := sim.MustHierarchy(
		sim.CacheConfig{Name: "L1", Size: 1024, LineSize: 32, Assoc: 2},
		sim.CacheConfig{Name: "L2", Size: 8192, LineSize: 64, Assoc: 2},
	)
	if _, err := exec.Run(p, h); err != nil {
		t.Fatal(err)
	}
	return h.MemoryBytes()
}

func TestInterchangeFixesStride(t *testing.T) {
	// Row-first traversal of a column-major array: terrible stride.
	p := lang.MustParse(`
program t
const N = 64
array a[N,N]
scalar s
loop L1 {
  for i = 0, N-1 {
    for j = 0, N-1 { s = s + a[i,j] }
  }
}
loop L2 { print s }
`)
	q, err := Interchange(p, "L1", "i")
	if err != nil {
		t.Fatal(err)
	}
	// Semantics identical (sum is order-independent for exact values
	// here, but compare against the interpreter anyway).
	r1, _ := exec.Run(p, nil)
	r2, _ := exec.Run(q, nil)
	if math.Abs(r1.Prints[0]-r2.Prints[0]) > 1e-9*(1+math.Abs(r1.Prints[0])) {
		t.Fatalf("results differ: %v vs %v", r1.Prints, r2.Prints)
	}
	// Traffic collapses to ~the footprint.
	before, after := trafficOf(t, p), trafficOf(t, q)
	if after*3 > before {
		t.Fatalf("interchange saved too little: %d -> %d", before, after)
	}
	// Structure: j is now the outer loop.
	text := q.NestByLabel("L1").String()
	ji := strings.Index(text, "for j")
	ii := strings.Index(text, "for i")
	if ji == -1 || ii == -1 || ji > ii {
		t.Fatalf("loops not swapped:\n%s", text)
	}
}

func TestInterchangeLegalWithLoopCarriedWrite(t *testing.T) {
	// b[i,j] = b[i,j] + x: distance 0 on both loops — legal.
	p := lang.MustParse(`
program t
const N = 16
array b[N,N]
loop L1 {
  for i = 0, N-1 {
    for j = 0, N-1 { b[i,j] = b[i,j] + 1 }
  }
}
`)
	if _, err := Interchange(p, "L1", "i"); err != nil {
		t.Fatal(err)
	}
}

func TestInterchangeRejectsUnanalyzable(t *testing.T) {
	// A write at b[i,j] with a read at b[i-1,j+1] moves along both
	// loops at once: the conservative check must refuse.
	p := lang.MustParse(`
program t
const N = 16
array b[N,N]
loop L1 {
  for i = 1, N-1 {
    for j = 0, N-2 { b[i,j] = b[i-1,j+1] }
  }
}
`)
	if _, err := Interchange(p, "L1", "i"); err == nil {
		t.Fatal("diagonal dependence interchanged")
	}
}

func TestInterchangeRejectsImperfectNest(t *testing.T) {
	p := lang.MustParse(`
program t
const N = 8
array a[N,N]
scalar s
loop L1 {
  for i = 0, N-1 {
    s = 0
    for j = 0, N-1 { a[i,j] = s }
  }
}
`)
	if _, err := Interchange(p, "L1", "i"); err == nil {
		t.Fatal("imperfect nest interchanged")
	}
}

func TestInterchangeRejectsDependentBounds(t *testing.T) {
	// Triangular loop: inner bound uses the outer variable.
	p := lang.MustParse(`
program t
const N = 8
array a[N,N]
loop L1 {
  for i = 0, N-1 {
    for j = 0, i { a[i,j] = 1 }
  }
}
`)
	if _, err := Interchange(p, "L1", "i"); err == nil {
		t.Fatal("triangular nest interchanged")
	}
}

func TestInterchangeErrors(t *testing.T) {
	p := lang.MustParse(`
program t
array a[4]
loop L1 { for i = 0, 3 { a[i] = 1 } }
`)
	if _, err := Interchange(p, "LX", "i"); err == nil {
		t.Fatal("missing nest accepted")
	}
	if _, err := Interchange(p, "L1", "zz"); err == nil {
		t.Fatal("missing loop accepted")
	}
	if _, err := Interchange(p, "L1", "i"); err == nil {
		t.Fatal("no inner loop accepted")
	}
}

func TestDistributeSplitsIndependentStatements(t *testing.T) {
	p := lang.MustParse(`
program t
const N = 32
array a[N]
array b[N]
array c[N]
array d[N]
scalar s
loop L1 {
  s = 0
  for i = 0, N-1 {
    a[i] = i * 2
    b[i] = a[i] + 1
    c[i] = i * 3
    d[i] = c[i] + 1
  }
  print s
}
`)
	q, err := Distribute(p, "L1")
	if err != nil {
		t.Fatal(err)
	}
	// Two groups: {a,b} and {c,d}.
	if len(q.Nests) != 2 {
		t.Fatalf("nests = %d\n%s", len(q.Nests), q)
	}
	r1, _ := exec.Run(p, nil)
	r2, err2 := exec.Run(q, nil)
	if err2 != nil {
		t.Fatalf("%v\n%s", err2, q)
	}
	for _, arr := range []string{"a", "b", "c", "d"} {
		x, y := r1.Array(arr), r2.Array(arr)
		for k := range x {
			if x[k] != y[k] {
				t.Fatalf("%s[%d] differs", arr, k)
			}
		}
	}
	// Prefix stays with the first nest, suffix with the last.
	if !strings.Contains(q.Nests[0].String(), "s = 0") {
		t.Fatalf("prefix misplaced:\n%s", q)
	}
	if !strings.Contains(q.Nests[len(q.Nests)-1].String(), "print s") {
		t.Fatalf("suffix misplaced:\n%s", q)
	}
}

func TestDistributeKeepsDependentTogether(t *testing.T) {
	p := lang.MustParse(`
program t
const N = 16
array a[N]
array b[N]
loop L1 {
  for i = 0, N-1 {
    a[i] = i
    b[i] = a[i] * 2
  }
}
`)
	if _, err := Distribute(p, "L1"); err == nil {
		t.Fatal("dependent statements split (or claim to be)")
	}
}

func TestDistributeThenRefuse(t *testing.T) {
	p := lang.MustParse(`
program t
array a[4]
loop L1 { a[0] = 1 }
loop L2 { for i = 0, 3 { a[i] = 1 } }
`)
	if _, err := Distribute(p, "L1"); err == nil {
		t.Fatal("loop-less nest distributed")
	}
	if _, err := Distribute(p, "L2"); err == nil {
		t.Fatal("single-statement loop distributed")
	}
	if _, err := Distribute(p, "LX"); err == nil {
		t.Fatal("missing nest accepted")
	}
}

func TestDistributeThenFuseRoundTrip(t *testing.T) {
	// Distribution output must be fusable back into one loop by the
	// fusion pass (the two are inverses on independent statements).
	p := lang.MustParse(`
program t
const N = 32
array a[N]
array b[N]
scalar s
loop L1 {
  for i = 0, N-1 {
    a[i] = i
    b[i] = i * 2
  }
}
loop L2 {
  s = 0
  for i = 0, N-1 { s = s + a[i] + b[i] }
  print s
}
`)
	dist, err := Distribute(p, "L1")
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Nests) != 3 {
		t.Fatalf("nests = %d", len(dist.Nests))
	}
	refused, _, err := Optimize(dist, Options{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(refused.Nests) != 1 {
		t.Fatalf("refusion produced %d nests", len(refused.Nests))
	}
	r1, _ := exec.Run(p, nil)
	r2, _ := exec.Run(refused, nil)
	if r1.Prints[0] != r2.Prints[0] {
		t.Fatal("distribute+fuse changed results")
	}
}
