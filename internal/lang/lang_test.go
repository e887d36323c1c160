package lang

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

const sec21Src = `
program sec21
const N = 2000000
array a[N]
scalar sum

loop L1 {
  for i = 0, N - 1 {
    a[i] = a[i] + 0.4
  }
}

loop L2 {
  for i = 0, N - 1 {
    sum = sum + a[i]
  }
}
`

func TestParseSec21(t *testing.T) {
	p, err := Parse(sec21Src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "sec21" {
		t.Fatalf("name = %q", p.Name)
	}
	if v, _ := p.Const("N"); v != 2000000 {
		t.Fatalf("N = %d", v)
	}
	if a := p.ArrayByName("a"); a == nil || a.Dims[0] != 2000000 {
		t.Fatal("array a wrong")
	}
	if len(p.Nests) != 2 || p.Nests[0].Label != "L1" || p.Nests[1].Label != "L2" {
		t.Fatal("nests wrong")
	}
	f := p.Nests[0].OuterLoop()
	if f == nil || f.Var != "i" {
		t.Fatal("outer loop wrong")
	}
}

func TestParseConstExprDims(t *testing.T) {
	p := MustParse(`
program t
const N = 8
array a[N*N, 2*N]
loop L1 { print a[0,0] }
`)
	a := p.ArrayByName("a")
	if a.Dims[0] != 64 || a.Dims[1] != 16 {
		t.Fatalf("dims = %v", a.Dims)
	}
}

func TestParseScalarInit(t *testing.T) {
	p := MustParse("program t\nscalar x = 1.5\nscalar y = -2\nscalar z\n")
	if p.ScalarByName("x").Init != 1.5 || p.ScalarByName("y").Init != -2 || p.ScalarByName("z").Init != 0 {
		t.Fatal("scalar initializers wrong")
	}
}

func TestParseStep(t *testing.T) {
	p := MustParse(`
program t
array a[100]
loop L1 {
  for i = 0, 99 step 2 {
    a[i] = 1
  }
}
`)
	if f := p.Nests[0].OuterLoop(); f.StepOr1() != 2 {
		t.Fatal("step wrong")
	}
}

func TestParseIfElseChain(t *testing.T) {
	p := MustParse(`
program t
const N = 10
array b[N]
scalar s
loop L1 {
  for j = 0, N-1 {
    if j == 0 {
      s = 1
    } else if j <= N-2 {
      s = s + b[j]
    } else {
      b[j] = s
    }
  }
}
`)
	f := p.Nests[0].OuterLoop()
	ifs, ok := f.Body[0].(*ir.If)
	if !ok || len(ifs.Else) != 1 {
		t.Fatal("if/else structure wrong")
	}
	if _, ok := ifs.Else[0].(*ir.If); !ok {
		t.Fatal("else-if not nested")
	}
}

func TestParsePlusEquals(t *testing.T) {
	p := MustParse(`
program t
array a[10]
scalar s
loop L1 {
  for i = 0, 9 {
    s += a[i]
  }
}
`)
	a := p.Nests[0].OuterLoop().Body[0].(*ir.Assign)
	bin, ok := a.RHS.(*ir.Bin)
	if !ok || bin.Op != ir.Add {
		t.Fatal("+= did not expand to s = s + expr")
	}
}

func TestParseReadAndPrint(t *testing.T) {
	p := MustParse(`
program t
array a[4]
scalar s
loop L1 {
  for i = 0, 3 { read a[i] }
}
loop L2 { print s }
`)
	if _, ok := p.Nests[0].OuterLoop().Body[0].(*ir.ReadInput); !ok {
		t.Fatal("read not parsed")
	}
	if _, ok := p.Nests[1].Body[0].(*ir.Print); !ok {
		t.Fatal("print not parsed")
	}
}

func TestParseCallsAndPrecedence(t *testing.T) {
	p := MustParse(`
program t
array a[10]
array b[10]
loop L1 {
  for i = 1, 8 {
    b[i] = f(a[i-1], a[i]) * 2 + g(b[i], a[1]) / (1 + a[i])
  }
}
`)
	s := p.Nests[0].OuterLoop().Body[0].(*ir.Assign)
	top, ok := s.RHS.(*ir.Bin)
	if !ok || top.Op != ir.Add {
		t.Fatalf("precedence wrong: %s", ir.ExprString(s.RHS))
	}
}

func TestParseComments(t *testing.T) {
	p := MustParse(`
program t  // trailing comment
# full-line comment
array a[4]
loop L1 {
  // another
  a[0] = 1 # end comment
}
`)
	if len(p.Nests) != 1 {
		t.Fatal("comments broke parsing")
	}
}

func TestParseNumberForms(t *testing.T) {
	p := MustParse(`
program t
scalar s
loop L1 {
  s = 1e6 + 0.5 + 2E-3 + .25
}
`)
	_ = p
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"no program kw", "const N = 1", "program"},
		{"bad token", "program t\narray a[4]\nloop L1 { a[0] = $ }", "unexpected character"},
		{"unterminated block", "program t\nloop L1 {", "unterminated"},
		{"bad extent", "program t\narray a[0]\nloop L1 {}", "positive"},
		{"nonconst dim", "program t\nscalar s\narray a[s]\nloop L1 {}", "constant"},
		{"undeclared", "program t\nloop L1 { x = 1 }", "undeclared"},
		{"negative step", "program t\narray a[4]\nloop L1 { for i = 0, 3 step 0 { a[i]=1 } }", "positive"},
		{"missing assign op", "program t\nscalar s\nloop L1 { s 1 }", "expected"},
		{"double dot", "program t\nscalar s\nloop L1 { s = 1.2.3 }", "malformed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("expected error containing %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	_, err := Parse("program t\nloop L1 { x = 1 }")
	if err == nil || !strings.Contains(err.Error(), "lang:") {
		t.Fatalf("err = %v", err)
	}
}

// Round trip: parse → print → parse yields identical text.
func TestRoundTrip(t *testing.T) {
	srcs := []string{sec21Src, `
program fig7
const N = 1000
array res[N]
array data[N]
scalar sum

loop L1 {
  for i = 0, N - 1 {
    res[i] = res[i] + data[i]
  }
}

loop L2 {
  sum = 0
  for i = 0, N - 1 {
    sum = sum + res[i]
  }
  print sum
}
`}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		text1 := p1.String()
		p2, err := Parse(text1)
		if err != nil {
			t.Fatalf("reparse failed: %v\n%s", err, text1)
		}
		text2 := p2.String()
		if text1 != text2 {
			t.Fatalf("round trip unstable:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
		}
	}
}

// Property: randomly generated programs survive print→parse→print.
func TestRoundTripPropertyRandomPrograms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng)
		text1 := p.String()
		q, err := Parse(text1)
		if err != nil {
			t.Logf("parse failed: %v\n%s", err, text1)
			return false
		}
		return q.String() == text1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomProgram builds a small random—but valid—program.
func randomProgram(rng *rand.Rand) *ir.Program {
	p := ir.NewProgram("rnd")
	p.DeclareConst("N", int64(4+rng.Intn(16)))
	nArr := 1 + rng.Intn(3)
	names := []string{"a", "b", "c"}[:nArr]
	for _, nm := range names {
		p.DeclareArray(nm, 32)
	}
	p.DeclareScalar("s")
	vars := []string{"i"}
	randExpr := func(depth int) ir.Expr { return nil }
	var gen func(depth int) ir.Expr
	gen = func(depth int) ir.Expr {
		if depth <= 0 {
			switch rng.Intn(3) {
			case 0:
				return ir.N(float64(rng.Intn(10)))
			case 1:
				return ir.V("s")
			default:
				return ir.At(names[rng.Intn(nArr)], ir.V(vars[0]))
			}
		}
		switch rng.Intn(5) {
		case 0:
			return ir.AddE(gen(depth-1), gen(depth-1))
		case 1:
			return ir.SubE(gen(depth-1), gen(depth-1))
		case 2:
			return ir.MulE(gen(depth-1), gen(depth-1))
		case 3:
			return &ir.Neg{X: gen(depth - 1)}
		default:
			return ir.CallE("abs", gen(depth-1))
		}
	}
	randExpr = gen
	nNests := 1 + rng.Intn(3)
	for k := 0; k < nNests; k++ {
		body := []ir.Stmt{
			ir.Let(ir.At(names[rng.Intn(nArr)], ir.V("i")), randExpr(2)),
		}
		if rng.Intn(2) == 0 {
			body = append(body, ir.When(ir.CmpE(ir.Le, ir.V("i"), ir.N(5)),
				ir.Let(ir.S("s"), randExpr(1))))
		}
		p.AddNest(string(rune('A'+k))+"1",
			ir.Loop("i", ir.N(0), ir.N(31), body...))
	}
	return p
}
