package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/sim"
)

// Differential tests: the closure compiler and the tree-walking
// interpreter must agree exactly — on results, on flop counts, and on
// every simulator counter.

func runBoth(t *testing.T, src string) (*Result, *Result, *sim.Hierarchy, *sim.Hierarchy) {
	t.Helper()
	p := lang.MustParse(src)
	h1, h2 := tinyHierarchy(), tinyHierarchy()
	r1, err := Run(p, h1)
	if err != nil {
		t.Fatalf("interpreter: %v", err)
	}
	cp, err := Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r2, err := cp.Run(h2)
	if err != nil {
		t.Fatalf("compiled run: %v", err)
	}
	return r1, r2, h1, h2
}

// sameFloats compares slices treating NaN as equal to NaN (results may
// legitimately contain NaN; bit-identical behaviour is what we verify).
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

func assertSame(t *testing.T, r1, r2 *Result, h1, h2 *sim.Hierarchy) {
	t.Helper()
	if !sameFloats(r1.Prints, r2.Prints) {
		t.Fatalf("prints differ: %v vs %v", r1.Prints, r2.Prints)
	}
	for k, v := range r1.Scalars {
		w, ok := r2.Scalars[k]
		if !ok || (v != w && !(math.IsNaN(v) && math.IsNaN(w))) {
			t.Fatalf("scalar %s differs: %v vs %v", k, v, w)
		}
	}
	if r1.Flops != r2.Flops {
		t.Fatalf("flops differ: %d vs %d", r1.Flops, r2.Flops)
	}
	if h1 != nil {
		if !reflect.DeepEqual(h1.ChannelBytes(), h2.ChannelBytes()) {
			t.Fatalf("traffic differs: %v vs %v", h1.ChannelBytes(), h2.ChannelBytes())
		}
		for lvl := 0; lvl < h1.Levels(); lvl++ {
			if h1.LevelStats(lvl) != h2.LevelStats(lvl) {
				t.Fatalf("level %d stats differ: %+v vs %+v", lvl, h1.LevelStats(lvl), h2.LevelStats(lvl))
			}
		}
	}
}

func TestCompiledMatchesInterpreterBasic(t *testing.T) {
	r1, r2, h1, h2 := runBoth(t, `
program t
const N = 64
array a[N]
array b[N]
scalar s
loop L1 {
  for i = 0, N-1 { read a[i] }
}
loop L2 {
  for i = 0, N-1 {
    if i >= 1 {
      b[i] = a[i] + a[i-1]
    } else {
      b[i] = a[i]
    }
  }
}
loop L3 {
  s = 0
  for i = 0, N-1 { s = s + b[i] * 0.5 }
  print s
  print f(s, 2) + g(1, s) + sqrt(s) + abs(s) + min(s,1) + max(s,1) + mod(s,3) + sin(s) + cos(s)
}
`)
	assertSame(t, r1, r2, h1, h2)
}

func TestCompiledMatchesInterpreterScalarIndices(t *testing.T) {
	r1, r2, h1, h2 := runBoth(t, `
program t
array a[16]
scalar r
scalar tmp
loop L1 {
  for i = 0, 15 { a[i] = i * i }
}
loop L2 {
  r = 15
  for i = 0, 7 {
    tmp = a[i]
    a[i] = a[r]
    a[r] = tmp
    r = r - 1
  }
}
loop L3 { print a[0] + a[15] }
`)
	assertSame(t, r1, r2, h1, h2)
}

func TestCompiledErrorsMatchInterpreter(t *testing.T) {
	progs := []*ir.Program{
		lang.MustParse("program t\narray a[4]\nloop L1 { a[9] = 1 }"),
		lang.MustParse("program t\narray a[4]\nloop L1 { for i = 0, 3 { a[i + 1] = 1 } }"),
		lang.MustParse("program t\narray a[4]\nscalar z\nloop L1 { z = 0\n a[1/z] = 1 }"),
		lang.MustParse("program t\narray a[4]\nscalar z = 0.5\nloop L1 { a[z] = 1 }"),
		lang.MustParse("program t\narray a[4]\nloop L1 { a[1.5] = 1 }"),
		lang.MustParse("program t\narray a[4]\nloop L1 { a[a[0]] = 1 }"),
		lang.MustParse("program t\narray a[4]\nloop L1 { a[1 < 2] = 1 }"),
		lang.MustParse("program t\narray a[4]\nloop L1 { a[abs(1)] = 1 }"),
		callProgram("zap", ir.N(1)),
		callProgram("f", ir.N(1)),
	}
	for _, p := range progs {
		_, err1 := Run(p, nil)
		cp, err2 := Compile(p)
		if err2 == nil {
			_, err2 = cp.Run(nil)
		}
		if err1 == nil || err2 == nil {
			t.Fatalf("case should fail on both engines:\n%s\ninterp=%v compiled=%v", p, err1, err2)
		}
		if err1.Error() != err2.Error() {
			t.Errorf("error text diverged:\n%s\ninterp:   %v\ncompiled: %v", p, err1, err2)
		}
	}
}

// TestCompiledDefersIntegerContextErrors: a subscript the interpreter
// would reject at run time must not stop a program from compiling when
// the code holding it never executes.
func TestCompiledDefersIntegerContextErrors(t *testing.T) {
	p := lang.MustParse("program t\narray a[4]\nloop L1 { if 0 { a[1.5] = 1\n a[a[0]] = 2\n a[1 < 2] = 3 }\n print 7 }")
	want, err := Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(p)
	if err != nil {
		t.Fatalf("dead integer-context error stopped compilation: %v", err)
	}
	got, err := cp.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Prints) != 1 || got.Prints[0] != want.Prints[0] {
		t.Fatalf("prints = %v, want %v", got.Prints, want.Prints)
	}
}

func TestCompileRejectsInvalidPrograms(t *testing.T) {
	p := ir.NewProgram("bad")
	p.AddNest("L1", ir.Let(ir.S("ghost"), ir.N(1)))
	if _, err := Compile(p); err == nil {
		t.Fatal("invalid program compiled")
	}
}

func TestCompiledReusable(t *testing.T) {
	// One Compiled can run many times with fresh state each time.
	p := lang.MustParse(`
program t
array a[8]
scalar s
loop L1 {
  for i = 0, 7 { a[i] = a[i] + 1
    s = s + a[i] }
  print s
}
`)
	cp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := cp.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cp.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Prints[0] != r2.Prints[0] {
		t.Fatalf("state leaked between runs: %v vs %v", r1.Prints[0], r2.Prints[0])
	}
}

// Property: random programs agree between engines, including on the
// cache simulator.
func TestCompiledDifferentialProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomExecProgram(rng)
		h1, h2 := tinyHierarchy(), tinyHierarchy()
		r1, err1 := Run(p, h1)
		cp, cerr := Compile(p)
		if cerr != nil {
			return err1 != nil
		}
		r2, err2 := cp.Run(h2)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("error divergence: %v vs %v\n%s", err1, err2, p)
			return false
		}
		if err1 != nil {
			return true
		}
		if !sameFloats(r1.Prints, r2.Prints) || r1.Flops != r2.Flops {
			t.Logf("result divergence\n%s", p)
			return false
		}
		return reflect.DeepEqual(h1.ChannelBytes(), h2.ChannelBytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// randomExecProgram builds a random program exercising most node kinds.
func randomExecProgram(rng *rand.Rand) *ir.Program {
	n := 8 + rng.Intn(24)
	p := ir.NewProgram("rnd")
	p.DeclareConst("N", int64(n))
	p.DeclareArray("a", n)
	p.DeclareArray("b", n)
	p.DeclareScalar("s")
	hi := ir.SubE(ir.V("N"), ir.N(1))
	var gen func(d int) ir.Expr
	gen = func(d int) ir.Expr {
		if d <= 0 || rng.Intn(3) == 0 {
			switch rng.Intn(4) {
			case 0:
				return ir.N(float64(rng.Intn(7)) / 2)
			case 1:
				return ir.V("i")
			case 2:
				return ir.V("s")
			default:
				return ir.At("a", ir.V("i"))
			}
		}
		ops := []ir.Op{ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Lt, ir.Le, ir.Gt, ir.Ge, ir.Eq, ir.Ne, ir.And, ir.Or}
		switch rng.Intn(6) {
		case 0:
			return &ir.Neg{X: gen(d - 1)}
		case 1:
			return ir.CallE([]string{"abs", "sqrt", "sin", "cos"}[rng.Intn(4)], gen(d-1))
		case 2:
			return ir.CallE([]string{"f", "g", "min", "max"}[rng.Intn(4)], gen(d-1), gen(d-1))
		default:
			op := ops[rng.Intn(len(ops))]
			return &ir.Bin{Op: op, L: gen(d - 1), R: gen(d - 1)}
		}
	}
	p.AddNest("Init", ir.Loop("i", ir.N(0), hi, ir.Input(ir.At("a", ir.V("i")))))
	var body []ir.Stmt
	body = append(body, ir.Let(ir.At("b", ir.V("i")), gen(3)))
	if rng.Intn(2) == 0 {
		body = append(body, ir.When(gen(2), ir.Let(ir.S("s"), gen(2))))
	}
	body = append(body, ir.Acc(ir.S("s"), ir.At("b", ir.V("i"))))
	p.AddNest("Work", ir.Loop("i", ir.N(0), hi, body...), ir.Show(ir.V("s")))
	return p
}

func TestCompiledFaster(t *testing.T) {
	// Not a strict benchmark, just a sanity check that compilation
	// produces a working large-run engine (speed measured in
	// BenchmarkCompiledExecutor at the repo root).
	p := lang.MustParse(`
program t
const N = 50000
array a[N]
scalar s
loop L1 { for i = 0, N-1 { s = s + a[i] } }
`)
	cp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompiledNaNHandling(t *testing.T) {
	// NaN comparisons must behave identically in both engines.
	src := `
program t
scalar s
scalar nanv
loop L1 {
  nanv = (0.0 / 0.0)
  if nanv == nanv { s = 1 } else { s = 2 }
  print s
}
`
	r1, r2, _, _ := runBoth(t, src)
	if math.IsNaN(r1.Prints[0]) || r1.Prints[0] != r2.Prints[0] {
		t.Fatalf("NaN divergence: %v vs %v", r1.Prints, r2.Prints)
	}
}

// TestRunVectors pins the input vectors of differential verification:
// vector 0 is the plain run, vector 1 seeds arrays by name and offset
// and shifts the input stream, and a failing vector ends the call with
// the earlier vectors' results.
func TestRunVectors(t *testing.T) {
	const src = `
program t
array a[3]
array b[2]
scalar s = 1
loop L1 {
  for i = 0, 2 {
    read b[0]
    s = s + a[i] * b[0]
    a[i] = i
  }
  print s
  print a[1]
}
`
	p := lang.MustParse(src)
	want, err := Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := cp.RunVectors(context.Background(), 2, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs[0].Prints, want.Prints) || !reflect.DeepEqual(rs[0].Scalars, want.Scalars) || rs[0].Flops != want.Flops {
		t.Fatalf("vector 0 = %+v, want the interpreter's %+v", rs[0], want)
	}
	if rs[1].Prints[0] == want.Prints[0] {
		t.Fatal("vector 1 printed vector 0's value: arrays or input not seeded")
	}
	if rs[1].Prints[1] != 1 {
		t.Fatalf("vector 1 print 1 = %v, want the stored 1", rs[1].Prints[1])
	}
	if rs[0].Array("a") != nil {
		t.Fatal("vector results carry arrays from the shared buffers")
	}

	// Seeds follow names, not layout: another array declared first
	// moves a in memory but not its vector-1 contents.
	q := lang.MustParse(strings.Replace(src, "array a[3]", "array z[5]\narray a[3]", 1))
	cq, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := cq.RunVectors(context.Background(), 2, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rq[1].Prints, rs[1].Prints) {
		t.Fatalf("vector 1 depends on layout: %v vs %v", rq[1].Prints, rs[1].Prints)
	}
	// Each vector's arrays come from a pooled slab that later calls
	// reuse; refilling every element keeps a rerun's results unchanged.
	again, err := cp.RunVectors(context.Background(), 2, Limits{})
	if err != nil || !reflect.DeepEqual(again[1].Prints, rs[1].Prints) {
		t.Fatalf("rerun = %v (%v), want %v", again[1].Prints, err, rs[1].Prints)
	}
}

func TestRunVectorsStopsAtFailingVector(t *testing.T) {
	// a[0] is 0 on vector 0 and a non-integer on vector 1.
	p := lang.MustParse("program t\narray a[2]\nscalar s\nloop L1 { s = a[0]\n a[s] = 1\n print s }")
	cp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := cp.RunVectors(context.Background(), 2, Limits{})
	if err == nil || !strings.Contains(err.Error(), "input vector 1") {
		t.Fatalf("err = %v, want a failure naming input vector 1", err)
	}
	if len(rs) != 1 || len(rs[0].Prints) != 1 {
		t.Fatalf("results = %v, want vector 0's alone", rs)
	}
}

// TestRunVectorsPooledSlabsStartClean: a slab left holding another
// program's vector-1 values must not leak into a later call. The second
// program's arrays fill the same size class, and its first statement
// reads every element before any write, so vector 0, and RunCtx, which
// runs vector 0 on the same pool with or without a hierarchy, must
// print zeros. A guarded store makes stale values change the traffic
// too: after each dirtying call, its level counters must equal those of
// its first run.
func TestRunVectorsPooledSlabsStartClean(t *testing.T) {
	dirty, err := Compile(lang.MustParse(`
program dirty
array x[40]
array y[24]
scalar s
loop L1 { for i = 0, 39 { s = s + x[i] }
  for i = 0, 23 { s = s + y[i] } }
`))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Compile(lang.MustParse("program clean\narray a[64]\nloop L1 { for i = 0, 63 { print a[i] } }"))
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := Compile(lang.MustParse(`
program guarded
array a[32]
array b[32]
loop L1 { for i = 0, 31 { if a[i] > 0 { b[i] = 1 } }
  for i = 0, 31 { print b[i] } }
`))
	if err != nil {
		t.Fatal(err)
	}
	// Origin2000's geometry; internal/machine imports this package.
	origin2000 := func() *sim.Hierarchy {
		return sim.MustHierarchy(
			sim.CacheConfig{Name: "L1", Size: 32 << 10, LineSize: 32, Assoc: 2},
			sim.CacheConfig{Name: "L2", Size: 4 << 20, LineSize: 128, Assoc: 2},
		)
	}
	ctx := context.Background()
	zeros := func(what string, r *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range r.Prints {
			if v != 0 {
				t.Fatalf("%s printed element %d = %v, want 0", what, i, v)
			}
		}
	}
	dirtyPool := func() {
		t.Helper()
		if _, err := dirty.RunVectors(ctx, 2, Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	first := origin2000()
	r, err := guarded.RunCtx(ctx, first, Limits{})
	zeros("guarded's first run", r, err)
	for round := 0; round < 8; round++ {
		dirtyPool()
		rs, err := clean.RunVectors(ctx, 2, Limits{})
		zeros(fmt.Sprintf("round %d: vector 0", round), rs[0], err)
		if rs[1].Prints[0] == 0 {
			t.Fatal("vector 1 printed an unseeded a[0]")
		}

		dirtyPool()
		r, err := clean.RunCtx(ctx, nil, Limits{})
		zeros(fmt.Sprintf("round %d: RunCtx", round), r, err)
		if r.Array("a") != nil {
			t.Fatal("a compiled run's result carries its arrays")
		}

		dirtyPool()
		r, err = clean.RunCtx(ctx, origin2000(), Limits{})
		zeros(fmt.Sprintf("round %d: RunCtx against a hierarchy", round), r, err)

		dirtyPool()
		h := origin2000()
		r, err = guarded.RunCtx(ctx, h, Limits{})
		zeros(fmt.Sprintf("round %d: guarded", round), r, err)
		for lvl := 0; lvl < h.Levels(); lvl++ {
			if h.LevelStats(lvl) != first.LevelStats(lvl) {
				t.Fatalf("round %d: guarded level %d: %+v, first run %+v", round, lvl, h.LevelStats(lvl), first.LevelStats(lvl))
			}
		}
	}
}

// TestRunVectorsConcurrentCallers runs RunVectors from several
// goroutines at once, on one Compiled and on two whose slabs share a
// size class. Every result must equal the one from a call made alone.
func TestRunVectorsConcurrentCallers(t *testing.T) {
	srcs := []string{`
program p
array a[100]
array b[28]
scalar s
loop L1 {
  for i = 0, 99 { read b[mod(i, 28)]
    s = s + a[i] * b[mod(i, 28)]
    a[i] = s }
  print s
  print a[50]
}
`, `
program q
array c[120]
scalar t = 1
loop L1 {
  for i = 1, 119 { c[i] = c[i] + c[i-1] * 0.5
    t = t + c[i] }
  print t
}
`}
	var cps []*Compiled
	var want [][]*Result
	for _, src := range srcs {
		cp, err := Compile(lang.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := cp.RunVectors(context.Background(), 2, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		cps, want = append(cps, cp), append(want, rs)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % len(cps)
				if g < 2 {
					k = 0 // two callers stay on one Compiled
				}
				got, err := cps[k].RunVectors(context.Background(), 2, Limits{})
				if err != nil || !reflect.DeepEqual(got, want[k]) {
					t.Errorf("caller %d, program %d: %v (%v), want %v", g, k, got, err, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// panicMachine panics on its first load, as a broken Machine might.
type panicMachine struct{}

type machinePanic struct{}

func (panicMachine) LoadSite(int64, int, uint32)  { panic(machinePanic{}) }
func (panicMachine) StoreSite(int64, int, uint32) {}
func (panicMachine) AddFlops(int64)               {}
func (panicMachine) Flush()                       {}

// TestMachinePanicPropagates: the compiled engine recovers only its own
// run-time faults. A panic raised by a Machine is not a fault of the
// program, so it must leave RunCtx as a panic, not as an error.
func TestMachinePanicPropagates(t *testing.T) {
	cp, err := Compile(lang.MustParse("program t\narray a[4]\nscalar s\nloop L1 { for i = 0, 3 { s = s + a[i] } }"))
	if err != nil {
		t.Fatal(err)
	}
	r := func() (r any) {
		defer func() { r = recover() }()
		_, err = cp.RunCtx(context.Background(), panicMachine{}, Limits{})
		return nil
	}()
	if r != (machinePanic{}) {
		t.Fatalf("RunCtx panicked with %v and returned err %v, want the machine's panic", r, err)
	}
}
