package lang

import (
	"context"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/ir"
)

// fuzzMaxElems bounds the arrays of a program FuzzParse runs: larger
// ones are only parsed and printed.
const fuzzMaxElems = 1 << 16

// fuzzLimits bounds each run, so a fuzzed infinite loop ends in
// exec.ErrStepBudget on both engines.
var fuzzLimits = exec.Limits{MaxSteps: 1 << 16}

// FuzzParse feeds arbitrary text to the parser, the input bwserved
// takes from its "program" field. Parsing must never panic; an accepted
// program must print to text that parses back to the same text; and a
// program small enough to run must behave the same on the interpreter
// and the compiled engine: both fail, or both print the same values and
// end with the same scalars.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		sec21Src,
		"program t\narray a[8]\nscalar s\nloop L1 {\n  for i = 0, 7 step 2 {\n    read a[i]\n    if i >= 2 && a[i] < 0 { s = s + a[i - 2] } else { s = mod(s, 3) }\n  }\n  print s\n}\n",
		"program t\narray a[4]\nloop L1 { for i = 0, 4 { a[i] = 1 } }",
		"program t\narray a[4]\nloop L1 { if 0 { a[1.5] = 1 }\n print 2 }",
		"program t\nscalar s\nloop L1 { for i = 0, 1000000000 { s = s + 1 } }",
		// Found by this target: an unknown intrinsic in dead code was
		// accepted by the interpreter but rejected by exec.Compile.
		"program t\nscalar s\nloop L1 { if 0 { s = A() } }",
		// Found by this target: a constant past 2^53 printed as a
		// literal that re-parsed, through float64, to another value.
		"program t\nconst A=10000000000000000+1\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		text := p.String()
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("printed program does not re-parse: %v\n%s", err, text)
		}
		if again := q.String(); again != text {
			t.Fatalf("print is not a fixpoint:\n--- first ---\n%s--- second ---\n%s", text, again)
		}
		if !smallArrays(p) {
			return
		}
		want, err1 := exec.RunCtx(context.Background(), p, nil, fuzzLimits)
		cp, err2 := exec.Compile(p)
		var got *exec.Result
		if err2 == nil {
			got, err2 = cp.RunCtx(context.Background(), nil, fuzzLimits)
		}
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("engines disagree on failure: interpreter %v, compiled %v\n%s", err1, err2, text)
		}
		if err1 != nil {
			return
		}
		if len(want.Prints) != len(got.Prints) {
			t.Fatalf("print counts differ: interpreter %d, compiled %d\n%s", len(want.Prints), len(got.Prints), text)
		}
		for i := range want.Prints {
			if !sameFloat(want.Prints[i], got.Prints[i]) {
				t.Fatalf("print %d differs: interpreter %v, compiled %v\n%s", i, want.Prints[i], got.Prints[i], text)
			}
		}
		for name, v := range want.Scalars {
			if !sameFloat(v, got.Scalars[name]) {
				t.Fatalf("scalar %s differs: interpreter %v, compiled %v\n%s", name, v, got.Scalars[name], text)
			}
		}
	})
}

// smallArrays reports whether the program's arrays hold at most
// fuzzMaxElems elements in all.
func smallArrays(p *ir.Program) bool {
	total := 0
	for _, a := range p.Arrays {
		n := 1
		for _, d := range a.Dims {
			if d > fuzzMaxElems {
				return false
			}
			n *= d
			if n > fuzzMaxElems {
				return false
			}
		}
		if total += n; total > fuzzMaxElems {
			return false
		}
	}
	return true
}

// sameFloat is equality that also matches NaN with NaN.
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}
