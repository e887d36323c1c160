package transform

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/sim"
)

// equivalent runs both programs functionally and compares prints and
// final scalars.
func equivalent(t *testing.T, a, b *ir.Program) {
	t.Helper()
	ra, err := exec.Run(a, nil)
	if err != nil {
		t.Fatalf("original: %v", err)
	}
	rb, err := exec.Run(b, nil)
	if err != nil {
		t.Fatalf("transformed: %v\n%s", err, b.String())
	}
	if len(ra.Prints) != len(rb.Prints) {
		t.Fatalf("print counts differ: %d vs %d", len(ra.Prints), len(rb.Prints))
	}
	for i := range ra.Prints {
		if math.Abs(ra.Prints[i]-rb.Prints[i]) > 1e-9*(1+math.Abs(ra.Prints[i])) {
			t.Fatalf("print %d differs: %v vs %v\n%s", i, ra.Prints[i], rb.Prints[i], b.String())
		}
	}
	// Scalars present in both must agree.
	for name, v := range ra.Scalars {
		if w, ok := rb.Scalars[name]; ok {
			if math.Abs(v-w) > 1e-9*(1+math.Abs(v)) {
				t.Fatalf("scalar %s differs: %v vs %v", name, v, w)
			}
		}
	}
}

func memBytes(t *testing.T, p *ir.Program) int64 {
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

func TestContractArray(t *testing.T) {
	p := lang.MustParse(`
program t
const N = 256
array tmp[N]
array a[N]
array b[N]
loop L1 {
  for i = 0, N-1 {
    tmp[i] = a[i] * 2
    b[i] = tmp[i] + 1
  }
}
loop L2 {
  print b[0] + b[N-1]
}
`)
	q, err := ContractArray(p, 0, "tmp")
	if err != nil {
		t.Fatal(err)
	}
	equivalent(t, p, q)
	if q.ArrayByName("tmp") != nil {
		t.Fatal("tmp declaration not removed")
	}
	if q.ScalarByName("tmp_s") == nil {
		t.Fatal("replacement scalar missing")
	}
	// Traffic must drop: tmp no longer streams through memory.
	if mb, ma := memBytes(t, p), memBytes(t, q); ma >= mb {
		t.Fatalf("contraction did not reduce memory traffic: %d -> %d", mb, ma)
	}
}

func TestContractArrayRejectsLiveOut(t *testing.T) {
	p := lang.MustParse(`
program t
const N = 16
array tmp[N]
array a[N]
scalar s
loop L1 {
  for i = 0, N-1 { tmp[i] = a[i] * 2 }
}
loop L2 {
  for i = 0, N-1 { s = s + tmp[i] }
}
`)
	// tmp in L1 is ScalarLike (write only)... but it is used in L2.
	if _, err := ContractArray(p, 0, "tmp"); err == nil {
		t.Fatal("live-out array contracted")
	}
}

func TestContractArrayRejectsCarry(t *testing.T) {
	p := lang.MustParse(`
program t
const N = 16
array tmp[N]
array a[N]
array b[N]
loop L1 {
  for i = 0, N-1 {
    tmp[i] = a[i]
    if i >= 1 { b[i] = tmp[i-1] }
  }
}
`)
	if _, err := ContractArray(p, 0, "tmp"); err == nil {
		t.Fatal("carried array contracted to scalar")
	}
}

func TestShrinkArrayScalarCarry(t *testing.T) {
	// 1-D stencil: prev becomes a scalar.
	p := lang.MustParse(`
program t
const N = 256
array tmp[N]
array a[N]
array b[N]
scalar s
loop L1 {
  for i = 0, N-1 {
    tmp[i] = a[i] * 2
    if i >= 1 {
      b[i] = tmp[i] + tmp[i-1]
    } else {
      b[i] = tmp[i]
    }
  }
}
loop L2 {
  s = 0
  for i = 0, N-1 { s = s + b[i] }
  print s
}
`)
	q, err := ShrinkArray(p, 0, "tmp")
	if err != nil {
		t.Fatal(err)
	}
	equivalent(t, p, q)
	if q.ArrayByName("tmp") != nil {
		t.Fatal("tmp not removed")
	}
	if q.ScalarByName("tmp_cur") == nil || q.ScalarByName("tmp_prev") == nil {
		t.Fatalf("cur/prev scalars missing:\n%s", q.String())
	}
}

func TestShrinkArrayBufferCarry(t *testing.T) {
	// Figure 6 shape: 2-D array carried along j, buffered over i.
	p := lang.MustParse(`
program t
const N = 32
array a[N,N]
array b[N,N]
scalar s
loop L1 {
  for j = 0, N-1 {
    for i = 0, N-1 {
      read a[i,j]
      if j >= 1 {
        b[i,j] = f(a[i,j-1], a[i,j])
      } else {
        b[i,j] = a[i,j]
      }
    }
  }
}
loop L2 {
  s = 0
  for j = 0, N-1 {
    for i = 0, N-1 { s = s + b[i,j] }
  }
  print s
}
`)
	q, err := ShrinkArray(p, 0, "a")
	if err != nil {
		t.Fatal(err)
	}
	equivalent(t, p, q)
	prev := q.ArrayByName("a_prev")
	if prev == nil || len(prev.Dims) != 1 || prev.Dims[0] != 32 {
		t.Fatalf("carry buffer wrong: %+v\n%s", prev, q.String())
	}
	// Storage shrinks from N^2 to N (plus scalars): the paper's
	// "dramatic reduction in storage space".
	if q.ArrayByName("a") != nil {
		t.Fatal("a not removed")
	}
	if mb, ma := memBytes(t, p), memBytes(t, q); ma >= mb {
		t.Fatalf("shrinking did not reduce traffic: %d -> %d", mb, ma)
	}
}

func TestShrinkRejectsUnguarded(t *testing.T) {
	p := lang.MustParse(`
program t
const N = 16
array tmp[N]
array a[N]
array b[N]
loop L1 {
  for i = 1, N-1 {
    tmp[i] = a[i]
    b[i] = tmp[i] + tmp[i-1]
  }
}
`)
	if _, err := ShrinkArray(p, 0, "tmp"); err == nil {
		t.Fatal("unguarded carry shrunk")
	}
}

func TestEliminateStoresFigure7(t *testing.T) {
	// The fused Figure 7 program.
	p := lang.MustParse(`
program fig7
const N = 256
array res[N]
array data[N]
scalar sum
loop L1 {
  for i = 0, N-1 { read data[i] }
}
loop L2 {
  sum = 0
  for i = 0, N-1 {
    res[i] = res[i] + data[i]
    sum = sum + res[i]
  }
  print sum
}
`)
	q, err := EliminateStores(p, 1, "res")
	if err != nil {
		t.Fatal(err)
	}
	equivalent(t, p, q)
	// res must still be declared (its old values are still read).
	if q.ArrayByName("res") == nil {
		t.Fatal("res declaration removed")
	}
	// The rewritten nest must not store to res anymore.
	if q.Nests[1].WritesArray(q, "res") {
		t.Fatalf("store not eliminated:\n%s", q.String())
	}
	if !q.Nests[1].ReadsArray(q, "res") {
		t.Fatal("loads must remain")
	}
	// Memory traffic: writebacks of res disappear.
	if mb, ma := memBytes(t, p), memBytes(t, q); ma >= mb {
		t.Fatalf("store elimination did not reduce traffic: %d -> %d", mb, ma)
	}
}

func TestEliminateStoresRejectsLiveOut(t *testing.T) {
	p := lang.MustParse(`
program t
const N = 16
array res[N]
scalar s
loop L1 {
  for i = 0, N-1 { res[i] = res[i] + 1 }
}
loop L2 {
  for i = 0, N-1 { s = s + res[i] }
}
`)
	if _, err := EliminateStores(p, 0, "res"); err == nil {
		t.Fatal("live-out writeback eliminated")
	}
}

func TestEliminateStoresRejectsCarriedReads(t *testing.T) {
	p := lang.MustParse(`
program t
const N = 16
array a[N]
scalar s
loop L1 {
  for i = 0, N-1 {
    a[i] = i * 2
    if i >= 1 { s = s + a[i-1] }
  }
}
`)
	if _, err := EliminateStores(p, 0, "a"); err == nil {
		t.Fatal("cross-iteration read forwarded incorrectly")
	}
}

func TestOptimizePipelineFigure7(t *testing.T) {
	// Unfused Figure 7(a): the pipeline must fuse, then eliminate the
	// res writeback — reproducing Figure 7(c).
	p := lang.MustParse(`
program fig7
const N = 512
array res[N]
array data[N]
scalar sum
loop L0 {
  for i = 0, N-1 { read data[i] }
}
loop L1 {
  for i = 0, N-1 { res[i] = res[i] + data[i] }
}
loop L2 {
  sum = 0
  for i = 0, N-1 { sum = sum + res[i] }
  print sum
}
`)
	q, out, err := OptimizeVerified(p, Config{Pipeline: DefaultPipelineSpec})
	if err != nil {
		t.Fatal(err)
	}
	equivalent(t, p, q)
	passes := map[string]bool{}
	for _, a := range out.Actions {
		passes[a.Pass] = true
	}
	if !passes["fuse"] || !passes["store-elim"] {
		t.Fatalf("pipeline actions = %v", out.Actions)
	}
	if mb, ma := memBytes(t, p), memBytes(t, q); float64(ma) > 0.8*float64(mb) {
		t.Fatalf("pipeline saved too little: %d -> %d", mb, ma)
	}
}

func TestOptimizeStencilPipelineEliminatesAllArrays(t *testing.T) {
	// A producer-consumer stencil chain: after fusion, contraction and
	// shrinking, every array should reduce to scalars (total traffic
	// collapse).
	p := lang.MustParse(`
program stencil
const N = 512
array t0[N]
array t1[N]
array b[N]
scalar s
loop L1 {
  for i = 0, N-1 { read t0[i] }
}
loop L2 {
  for i = 0, N-1 { t1[i] = t0[i] * 0.5 }
}
loop L3 {
  for i = 0, N-1 {
    if i >= 1 {
      b[i] = t1[i] + t1[i-1]
    } else {
      b[i] = t1[i]
    }
  }
}
loop L4 {
  s = 0
  for i = 0, N-1 { s = s + b[i] }
  print s
}
`)
	q, out, err := OptimizeVerified(p, Config{Pipeline: DefaultPipelineSpec})
	if err != nil {
		t.Fatal(err)
	}
	equivalent(t, p, q)
	if len(q.Arrays) != 0 {
		t.Fatalf("arrays remain after pipeline: %v\nlog: %v\n%s", q.Arrays, out.Actions, q.String())
	}
	// Traffic collapses to near zero.
	if ma := memBytes(t, q); ma > 1024 {
		t.Fatalf("residual traffic %d bytes", ma)
	}
}

func TestFusionOnlyOption(t *testing.T) {
	p := lang.MustParse(`
program t
const N = 64
array a[N]
scalar s
loop L1 { for i = 0, N-1 { a[i] = a[i] + 1 } }
loop L2 { for i = 0, N-1 { s = s + a[i] } }
`)
	q, out, err := OptimizeVerified(p, Config{Pipeline: "fuse"})
	if err != nil {
		t.Fatal(err)
	}
	equivalent(t, p, q)
	if len(q.Nests) != 1 {
		t.Fatal("fusion did not happen")
	}
	for _, a := range out.Actions {
		if a.Pass != "fuse" {
			t.Fatalf("unexpected pass %s", a.Pass)
		}
	}
	// The array store must remain (no store elimination requested).
	if !q.Nests[0].WritesArray(q, "a") {
		t.Fatal("store disappeared under fusion-only")
	}
}

func TestOptimizeLeavesUntransformableAlone(t *testing.T) {
	// A reduction over a live-out array: nothing to do but fuse is
	// impossible (single nest). Program must round-trip unchanged.
	p := lang.MustParse(`
program t
const N = 64
array a[N]
scalar s
loop L1 { for i = 0, N-1 { a[i] = i } }
loop L9 { print a[N-1] }
`)
	q, _, err := OptimizeVerified(p, Config{Pipeline: DefaultPipelineSpec})
	if err != nil {
		t.Fatal(err)
	}
	equivalent(t, p, q)
	if q.ArrayByName("a") == nil {
		t.Fatal("live-out array must survive")
	}
}

func TestActionString(t *testing.T) {
	a := Action{Pass: "contract", Nest: "L1", Array: "tmp", Note: "x"}
	if !strings.Contains(a.String(), "tmp") || !strings.Contains(a.String(), "L1") {
		t.Fatal(a.String())
	}
	b := Action{Pass: "fuse", Note: "3 loops"}
	if !strings.Contains(b.String(), "fuse") {
		t.Fatal(b.String())
	}
}

func TestFreshName(t *testing.T) {
	p := lang.MustParse(`
program t
array x[4]
scalar x_s
loop L1 { x[0] = 1 }
`)
	n := freshName(p, "x_s")
	if n == "x_s" || p.ScalarByName(n) != nil {
		t.Fatalf("fresh name collided: %s", n)
	}
}

func TestUsedOnlyIn(t *testing.T) {
	p := lang.MustParse(`
program t
const N = 8
array a[N]
array b[N]
loop L1 { for i = 0, N-1 { a[i] = 1 } }
loop L2 { for i = 0, N-1 { b[i] = a[i] } }
`)
	if usedOnlyIn(p, 0, "a") {
		t.Fatal("a used in both nests")
	}
	if !usedOnlyIn(p, 1, "b") {
		t.Fatal("b used only in L2")
	}
}

func TestShrinkPreservesValuesUnderSimulation(t *testing.T) {
	// Run the figure-6 style shrink on the full simulator and compare
	// printed results (paranoia: traffic accounting must not perturb
	// semantics).
	p := lang.MustParse(`
program t
const N = 24
array a[N,N]
array b[N,N]
scalar s
loop L1 {
  for j = 0, N-1 {
    for i = 0, N-1 {
      read a[i,j]
      if j >= 1 {
        b[i,j] = f(a[i,j-1], a[i,j])
      } else {
        b[i,j] = a[i,j]
      }
      s = s + b[i,j]
    }
  }
  print s
}
`)
	q, err := ShrinkArray(p, 0, "a")
	if err != nil {
		t.Fatal(err)
	}
	// 2 KB 4-way: big enough to hold the carry buffer, far too small
	// for the N x N arrays, and associative enough that the streaming
	// array does not conflict-evict the buffer.
	h1 := sim.MustHierarchy(sim.CacheConfig{Name: "L1", Size: 2048, LineSize: 32, Assoc: 4})
	h2 := sim.MustHierarchy(sim.CacheConfig{Name: "L1", Size: 2048, LineSize: 32, Assoc: 4})
	r1, err := exec.Run(p, h1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := exec.Run(q, h2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Prints, r2.Prints) {
		t.Fatalf("prints differ: %v vs %v", r1.Prints, r2.Prints)
	}
	if h2.MemoryBytes() >= h1.MemoryBytes() {
		t.Fatalf("traffic did not shrink: %d -> %d", h1.MemoryBytes(), h2.MemoryBytes())
	}
}
