package exec_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/machine"
)

// batchCase is one program the interpreter and the compiled engine run
// with no machine, where the compiled engine may run loops a chunk at a
// time. batch names the loops ("nest/var") that must run batched, and
// perIter those that must not; both are checked only when the run
// succeeds.
type batchCase struct {
	name     string
	src      string
	canceled bool
	lim      exec.Limits
	wantErr  string
	batch    []string
	perIter  []string
}

// batchCases cover the legality rules of batched loops and their
// run-time prechecks. Each loop that must fall back computes a
// different answer if it is batched anyway.
var batchCases = []batchCase{
	{name: "recurrence", perIter: []string{"L1/i"}, batch: []string{"L1/k"}, src: `
program t
const N = 64
array a[N]
loop L1 {
  for k = 0, N - 1 { read a[k] }
  for i = 1, N - 1 { a[i] = a[i-1] + 1 }
  print a[N-1]
}
`},
	{name: "shifted read of a written array", perIter: []string{"L1/i"}, batch: []string{"L1/k"}, src: `
program t
const N = 64
array a[N]
array b[N]
loop L1 {
  for k = 0, N - 1 {
    read a[k]
    read b[k]
  }
  for i = 0, N - 2 {
    a[i] = b[i]
    b[i] = a[i+1]
  }
  print a[3] + b[5] + b[N-2]
}
`},
	{name: "loop-invariant written element", perIter: []string{"L1/i"}, batch: []string{"L1/k"}, src: `
program t
const N = 16
array e[N]
array a[N, N]
loop L1 {
  for j = 0, N - 1 {
    for k = 0, N - 1 { read a[k, j] }
  }
  for j = 0, N - 1 {
    for i = 0, N - 1 { e[j] = e[j] * 0.5 + a[i, j] }
  }
  print e[0] + e[N-1]
}
`},
	{name: "constant written element", perIter: []string{"L1/i"}, src: `
program t
const N = 64
array a[N]
array b[N]
loop L1 {
  for i = 0, N - 1 { a[3] = a[3] * 0.5 + b[i] + i }
  print a[3]
}
`},
	{name: "private scalar read after its source is overwritten", batch: []string{"L1/i", "L1/k"}, src: `
program t
const N = 300
array a[N]
array b[N]
scalar t
scalar q
loop L1 {
  for k = 0, N - 1 { read a[k] }
  for i = 0, N - 1 {
    t = a[i]
    a[i] = 2
    b[i] = t * 3
    q = a[i] + t
  }
  print t + q + b[7] + a[4] + b[N-1]
}
`},
	{name: "private scalars rewritten and folded", batch: []string{"L1/i"}, src: `
program t
const N = 200
array a[N]
array b[N]
scalar t
scalar v
scalar s
loop L1 {
  for i = 0, N - 1 {
    read a[i]
    t = 3
    t = t * a[i] - i
    v = t / 7
    b[i] = t + v
    s = s + v
    v = -v
  }
  print t + v + s + b[N-1]
}
`},
	{name: "reduction chains", batch: []string{"L1/i"}, src: `
program t
const N = 500
array a[N]
array b[N]
scalar s = 1
scalar u
scalar c
scalar d = 2
loop L1 {
  for k = 0, N - 1 {
    read a[k]
    read b[k]
  }
  for i = 0, N - 1 {
    s = s * a[i] + b[i]
    u = u - a[i] / b[i]
    c = c + 0.5
    d = d / 1.001 - a[i] * b[i] + 0.25 * i
  }
  print s
  print u
  print c
  print d
}
`},
	{name: "reduction read by another statement", perIter: []string{"L1/i"}, src: `
program t
const N = 64
array a[N]
array b[N]
scalar s
loop L1 {
  for k = 0, N - 1 { read a[k] }
  for i = 0, N - 1 {
    s = s + a[i]
    b[i] = s
  }
  print b[N-1] + b[3]
}
`},
	{name: "reduction operand reads its own scalar", perIter: []string{"L1/i"}, src: `
program t
const N = 64
array a[N]
scalar s = 0.5
loop L1 {
  for k = 0, N - 1 { read a[k] }
  for i = 0, N - 1 { s = s + a[i] * s }
  print s
}
`},
	{name: "two scalar reads and an array read per iteration", batch: []string{"L1/i"}, src: `
program t
const N = 300
array a[N]
array b[N]
scalar x
scalar y
loop L1 {
  for i = 0, N - 1 {
    read x
    read y
    read a[i]
    b[i] = x - y * a[i]
  }
  print x + y + b[N-1] + a[17]
}
`},
	{name: "out of bounds at the last iteration only", wantErr: "nest L1: index 64 out of bounds [0,64) in a[", src: `
program t
const N = 64
array a[N]
array b[N]
loop L1 {
  for k = 0, N - 1 { read a[k] }
  for i = 0, N - 1 { b[i] = a[i] + a[i+1] }
  print b[0]
}
`},
	{name: "negative subscript at the last iteration only", wantErr: "nest L2: index -1 out of bounds [0,40) in b[", src: `
program t
const N = 40
array a[N]
array b[N]
loop L1 {
  for k = 0, N - 1 { read a[k] }
}
loop L2 {
  for i = 0, N - 1 step 3 { b[N-2-i] = a[i] * 2 }
  print b[0]
}
`},
	{name: "step 2 with a negative coefficient", batch: []string{"L1/i", "L1/m"}, src: `
program t
const N = 301
array a[N]
array b[N]
array c[N]
loop L1 {
  for k = 0, N - 1 { read b[k] }
  for i = 0, N - 1 step 2 {
    a[N-1-i] = b[i] * 2 + i
    c[i] = a[N-1-i] - 1
  }
  for m = 1, N - 1 step 3 { c[m] = c[m] + b[N-m] }
  print a[0] + a[N-1] + c[N-1] + c[4]
}
`},
	{name: "loop variable as a value and a zero-trip loop", batch: []string{"L1/i"}, perIter: []string{"L1/z"}, src: `
program t
const N = 257
array a[N]
scalar s
loop L1 {
  for i = 0, N - 1 {
    a[i] = i * 0.5 - N
    s = s + i
  }
  for z = 5, 4 { a[z] = 1 }
  print a[N-1] + a[5] + s
}
`},
	{name: "division by zero, comparisons and mod", batch: []string{"L1/i"}, perIter: []string{"L1/m"}, src: `
program t
const N = 64
array a[N]
array b[N]
array c[N]
loop L1 {
  for i = 0, N - 1 {
    a[i] = 1 / (i - 3) + (i - 5) / (i - 5)
    b[i] = (a[i] < 0) + (a[i] >= b[i]) * 2 + (a[i] == a[i]) + (a[i] != 1) - (i <= 7) + (i > 60)
  }
  for m = 0, N - 1 { c[m] = mod(b[m] + m, 3) }
  print a[3] + a[4] + b[3] + b[5] + c[N-1]
}
`},
	{name: "mod by zero", wantErr: "nest L1: mod by zero", src: `
program t
const N = 64
array a[N]
array b[N]
loop L1 {
  for i = 0, N - 1 { b[i] = mod(a[i], i - 9) }
  print b[0]
}
`},
	{name: "short-circuit operators", perIter: []string{"L1/i"}, src: `
program t
const N = 64
array a[N]
array b[N]
loop L1 {
  for i = 0, N - 1 { b[i] = (i > 3 && a[i] + 1) || a[i] * 2 }
  print b[5] + b[0]
}
`},
	{name: "diagonal and transposed references", batch: []string{"L1/i", "L1/d", "L1/k"}, src: `
program t
const N = 24
array m[N, N]
array w[N, N]
loop L1 {
  for j = 0, N - 1 {
    for k = 0, N - 1 { read m[k, j] }
  }
  for j = 0, N - 1 {
    for i = 0, N - 1 { w[i, j] = m[j, i] * 2 + m[i, i] - m[3, j] }
  }
  for d = 0, N - 1 { m[d, d] = m[d, d] + w[d, N-1-d] }
  print m[3, 3] + w[2, 5] + m[N-1, N-1]
}
`},
	{name: "intrinsics and negation", batch: []string{"L1/i"}, src: `
program t
const N = 130
array a[N]
array b[N]
loop L1 {
  for i = 0, N - 1 {
    read a[i]
    b[i] = f(a[i], 2) + g(3, a[i]) + sqrt(a[i]) + sin(a[i]) * cos(i) + abs(a[i]) + min(a[i], 0.1) + max(0.2, a[i]) - f(1, 2) + -a[i] + -(2) + sqrt(-3)
  }
  print b[0] + b[N-1]
}
`},
	{name: "one array written twice in one form", batch: []string{"L1/i"}, src: `
program t
const N = 100
array a[N]
array b[N]
loop L1 {
  for i = 0, N - 1 {
    read b[i]
    a[i] = b[i] + 1
    a[i] = a[i] * a[i]
    read a[i]
    b[i] = a[i] - b[i]
  }
  print a[7] + b[N-1]
}
`},
	{name: "step budget exhausted mid-loop", lim: exec.Limits{MaxSteps: 100}, wantErr: "nest L1: exec: step budget exhausted (limit 100 iterations)", src: `
program t
const N = 64
array a[N]
scalar s
loop L1 {
  for k = 0, N - 1 { read a[k] }
  for i = 0, N - 1 { s = s + a[i] }
  print s
}
`},
	{name: "step budget exactly spent", lim: exec.Limits{MaxSteps: 128}, batch: []string{"L1/i", "L1/k"}, src: `
program t
const N = 64
array a[N]
scalar s
loop L1 {
  for k = 0, N - 1 { read a[k] }
  for i = 0, N - 1 { s = s + a[i] }
  print s
}
`},
	{name: "cancellation mid-loop", canceled: true, wantErr: "nest L1: exec: run canceled after 1024 iterations: context canceled", src: `
program t
const N = 4000
array a[N]
scalar s
loop L1 {
  print 1
  for k = 0, 99 { read a[k] }
  for i = 0, N - 1 { s = s + a[i] }
  print s
}
`},
}

// TestBatchParity runs each batch case on the interpreter and on the
// compiled engine with no machine (see checkBatchParity), and checks
// which loops ran a chunk at a time.
func TestBatchParity(t *testing.T) {
	for _, tc := range batchCases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			if tc.canceled {
				canceled, cancel := context.WithCancel(ctx)
				cancel()
				ctx = canceled
			}
			p := lang.MustParse(tc.src)
			res, err := checkBatchParity(t, ctx, p, tc.lim)
			switch {
			case tc.wantErr != "":
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want both engines to fail with %q, got %v", tc.wantErr, err)
				}
				return
			case err != nil:
				t.Fatal(err)
			case len(res.Prints) == 0:
				t.Fatal("the program printed nothing to compare")
			}
			checkBatched(t, p, tc.lim, tc.batch, tc.perIter)
		})
	}
}

// TestBatchCoverage names the loops of the paper's kernels that run a
// chunk at a time with no machine, and how often, so a change cannot
// silently send differential verification, or a plain measurement,
// back to the per-iteration engine. A loop that is absent must run per
// iteration: SP's sweeps read a neighbour of the element they write
// (XFwd's rhs1[i-1,j]), sweep3d writes edgeI[j], which does not move
// with i, and fig6b's fused loop is guarded. Each kernel also runs to the same outcome on
// both engines.
func TestBatchCoverage(t *testing.T) {
	sp := map[string]int64{"Pinvr/i": 10}
	for _, nest := range []string{"Rhs", "Tx", "Add"} {
		for c := 1; c <= 5; c++ {
			sp[fmt.Sprintf("%s%d/i", nest, c)] = 10
		}
	}
	for _, tc := range []struct {
		name string
		p    *ir.Program
		want map[string]int64
	}{
		{"matmul", kernels.MatmulJKI(16), map[string]int64{"MM/i": 16 * 16}},
		{"fig7", kernels.Fig7Original(300), map[string]int64{"Init/i": 1, "Update/i": 1, "Sum/i": 1}},
		{"fig7 optimized", lang.MustParse(`
program fig7
const N = 300
array res[N]
scalar sum
scalar data_s
scalar res_v
loop Init_Update_Sum {
  sum = 0
  for i = 0, N - 1 {
    read data_s
    res_v = res[i] + data_s
    sum = sum + res_v
  }
  print sum
}
`), map[string]int64{"Init_Update_Sum/i": 1}},
		{"fig6a", kernels.Fig6Original(12), map[string]int64{"Init/i": 12, "Comp/i": 11, "Last/i": 1, "Check/i": 11}},
		{"sec21", kernels.Sec21Pair(300), map[string]int64{"L1/i": 1, "L2/i": 1}},
		{"conv", kernels.Convolution(300), map[string]int64{"Conv/i": 1}},
		{"dmxpy", kernels.Dmxpy(16), map[string]int64{"Dmxpy/i": 16}},
		{"sp", kernels.SP(12), sp},
		{"sweep3d", kernels.Sweep3D(12, 2), map[string]int64{}},
		{"fig6b", kernels.Fig6Fused(12), map[string]int64{"Fused/i": 1}}, // the peeled read loop
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := checkBatchParity(t, context.Background(), tc.p, exec.Limits{}); err != nil {
				t.Fatal(err)
			}
			if got := batchedLoops(t, tc.p, nil, exec.Limits{}); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("batched executions per loop:\ngot  %v\nwant %v", got, tc.want)
			}
		})
	}
	// A plain hierarchy batches the same loops, as balance.Measure runs
	// them; one recording reuse distances keeps them per iteration.
	for _, tc := range []struct {
		name string
		p    func() *ir.Program
		want map[string]int64
	}{
		{"fig7", func() *ir.Program { return kernels.Fig7Original(300) }, map[string]int64{"Init/i": 1, "Update/i": 1, "Sum/i": 1}},
		{"conv", func() *ir.Program { return kernels.Convolution(300) }, map[string]int64{"Conv/i": 1}},
	} {
		for _, spec := range []machine.Spec{machine.Origin2000(), machine.SkylakeSP()} {
			t.Run(tc.name+"/"+spec.Name, func(t *testing.T) {
				if got := batchedLoops(t, tc.p(), spec.NewHierarchy(), exec.Limits{}); !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("batched executions per loop under a plain hierarchy:\ngot  %v\nwant %v", got, tc.want)
				}
				h := spec.NewHierarchy()
				if err := h.EnableMRC(); err != nil {
					t.Fatal(err)
				}
				got := batchedLoops(t, tc.p(), h, exec.Limits{})
				for name := range tc.want {
					if got[name] != 0 {
						t.Errorf("loop %s ran batched %d times under a reuse-distance recorder", name, got[name])
					}
				}
			})
		}
	}
}

// batchedLoops runs p against h, which may be nil, and returns how many
// times each loop that qualifies for batching ran a chunk at a time.
func batchedLoops(t *testing.T, p *ir.Program, h exec.Machine, lim exec.Limits) map[string]int64 {
	t.Helper()
	cp, err := exec.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.BatchedLoops(context.Background(), cp, h, lim)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkBatched requires every loop in batch to have run a chunk at a
// time, and no loop in perIter to have.
func checkBatched(t *testing.T, p *ir.Program, lim exec.Limits, batch, perIter []string) {
	t.Helper()
	got := batchedLoops(t, p, nil, lim)
	for _, name := range batch {
		if got[name] == 0 {
			t.Errorf("loop %s did not run batched; batched executions: %v", name, got)
		}
	}
	for _, name := range perIter {
		if got[name] != 0 {
			t.Errorf("loop %s ran batched %d times; it must run per iteration", name, got[name])
		}
	}
}

// FuzzBatchParity runs every program that parses, and whose arrays are
// small enough, on the interpreter and on the compiled engine with no
// machine, and requires the same outcome (see checkBatchParity). It is
// seeded with the parity and batch cases and the programs in testdata.
func FuzzBatchParity(f *testing.F) {
	for _, tc := range parityCases {
		f.Add(tc.src)
	}
	for _, tc := range batchCases {
		f.Add(tc.src)
	}
	for _, file := range testdataSources(f) {
		f.Add(file[1])
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := lang.Parse(src)
		if err != nil || elems(p) > fuzzMaxElems {
			return
		}
		checkBatchParity(t, context.Background(), p, fuzzLimits)
	})
}

// checkBatchParity runs p with no machine on the interpreter and on the
// compiled engine, on RunCtx's path, which batches what it can, and
// fails t unless the outcomes are the same: the same error text on
// failure; on success the same prints, scalars, flops and final
// arrays, bit for bit. It
// then runs input vector 1 batched and strictly per iteration and holds
// the two to the same. It returns the interpreter's outcome.
func checkBatchParity(t *testing.T, ctx context.Context, p *ir.Program, lim exec.Limits) (*exec.Result, error) {
	t.Helper()
	ri, erri := exec.RunCtx(ctx, p, nil, lim)
	cp, err := exec.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rc, errc := exec.RunVector(ctx, cp, nil, 0, lim, true)
	sameOutcome(t, p, "interp", "compiled", ri, rc, erri, errc)
	rb, errb := exec.RunVector(ctx, cp, nil, 1, lim, true)
	ru, erru := exec.RunVector(ctx, cp, nil, 1, lim, false)
	sameOutcome(t, p, "vector 1 per iteration", "vector 1 batched", ru, rb, erru, errb)
	return ri, erri
}

// sameOutcome fails t unless two runs of p ended the same way.
func sameOutcome(t *testing.T, p *ir.Program, an, bn string, a, b *exec.Result, erra, errb error) {
	t.Helper()
	switch {
	case (erra == nil) != (errb == nil):
		t.Fatalf("disagree on failure:\n%s: %v\n%s: %v", an, erra, bn, errb)
	case erra != nil:
		if erra.Error() != errb.Error() {
			t.Fatalf("error text diverged:\n%s: %v\n%s: %v", an, erra, bn, errb)
		}
		return
	case !sameBits(a.Prints, b.Prints):
		t.Fatalf("prints: %s %v, %s %v", an, a.Prints, bn, b.Prints)
	case a.Flops != b.Flops:
		t.Fatalf("flops: %s %d, %s %d", an, a.Flops, bn, b.Flops)
	case len(a.Scalars) != len(b.Scalars):
		t.Fatalf("scalars: %s %v, %s %v", an, a.Scalars, bn, b.Scalars)
	}
	for _, s := range p.Scalars {
		if !sameBits([]float64{a.Scalars[s.Name]}, []float64{b.Scalars[s.Name]}) {
			t.Fatalf("scalar %s: %s %v, %s %v", s.Name, an, a.Scalars[s.Name], bn, b.Scalars[s.Name])
		}
	}
	for _, arr := range p.Arrays {
		x, y := a.Array(arr.Name), b.Array(arr.Name)
		if len(x) != len(y) {
			t.Fatalf("array %s: %s has %d elements, %s %d", arr.Name, an, len(x), bn, len(y))
		}
		for i := range x {
			if !sameBits(x[i:i+1], y[i:i+1]) {
				t.Fatalf("array %s element %d: %s %v, %s %v", arr.Name, i, an, x[i], bn, y[i])
			}
		}
	}
}

// sameBits compares bit patterns, so 0 and -0 differ. Any NaN matches
// any NaN: which operand's payload an operation keeps depends on the
// order the Go compiler gives the operands, not on the engine.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}
