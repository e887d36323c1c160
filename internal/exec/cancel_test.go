package exec

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/lang"
)

// longProgram runs ~1.6e9 innermost iterations — hours of interpreter
// time if left alone. The cancellation tests prove it stops promptly.
const longProgram = `
program long
const N = 40000
scalar s
loop L1 {
  for i = 0, N - 1 {
    for j = 0, N - 1 {
      s = s + 1
    }
  }
}
`

func TestRunCtxCancelsPromptly(t *testing.T) {
	p := lang.MustParse(longProgram)
	for _, engine := range []string{"interp", "compiled"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			start := time.Now()
			var err error
			if engine == "interp" {
				_, err = RunCtx(ctx, p, nil, Limits{})
			} else {
				cp, cerr := Compile(p)
				if cerr != nil {
					t.Fatal(cerr)
				}
				_, err = cp.RunCtx(ctx, nil, Limits{})
			}
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("run completed despite cancellation")
			}
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			// The deadline is 20ms and polling happens every 1024
			// iterations; anything past 5s means polling is broken.
			if elapsed > 5*time.Second {
				t.Fatalf("cancellation took %v, want prompt stop", elapsed)
			}
		})
	}
}

func TestRunCtxStepBudget(t *testing.T) {
	p := lang.MustParse(longProgram)
	lim := Limits{MaxSteps: 10_000}
	for _, engine := range []string{"interp", "compiled"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			var err error
			if engine == "interp" {
				_, err = RunCtx(context.Background(), p, nil, lim)
			} else {
				cp, cerr := Compile(p)
				if cerr != nil {
					t.Fatal(cerr)
				}
				_, err = cp.RunCtx(context.Background(), nil, lim)
			}
			if !errors.Is(err, ErrStepBudget) {
				t.Fatalf("err = %v, want ErrStepBudget", err)
			}
		})
	}
}

// TestRunCtxBudgetAllowsCompletion checks that a budget larger than the
// program's work does not disturb the run or its results.
func TestRunCtxBudgetAllowsCompletion(t *testing.T) {
	src := `
program small
const N = 100
array a[N]
scalar s
loop L1 {
  for i = 0, N - 1 { a[i] = i }
}
loop L2 {
  for i = 0, N - 1 { s = s + a[i] }
}
`
	p := lang.MustParse(src)
	ref, err := Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCtx(context.Background(), p, nil, Limits{MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if got.Scalars["s"] != ref.Scalars["s"] {
		t.Fatalf("budgeted run s = %v, unbudgeted %v", got.Scalars["s"], ref.Scalars["s"])
	}
}

// endlessProgram runs 1e12 innermost iterations: no run of it finishes
// inside a test's lifetime, so a call that returns proves it was
// stopped.
const endlessProgram = `
program endless
const N = 10000
scalar s
loop L1 {
  for i = 0, N - 1 {
    for j = 0, N - 1 {
      for k = 0, N - 1 {
        s = s + 1
      }
    }
  }
}
`

// errPanicCtx panics from Err: a panic that is no fault of the program.
type errPanicCtx struct{ context.Context }

type ctxPanic struct{}

func (errPanicCtx) Err() error { panic(ctxPanic{}) }

// TestRunVectorsPanicPropagates: a panic raised inside a vector's
// goroutine is not a run-time fault, so it must reach RunVectors'
// caller as the same panic, after every vector has stopped, and never
// crash the process from the goroutine that raised it.
func TestRunVectorsPanicPropagates(t *testing.T) {
	cp, err := Compile(lang.MustParse(longProgram))
	if err != nil {
		t.Fatal(err)
	}
	r := func() (r any) {
		defer func() { r = recover() }()
		_, err = cp.RunVectors(errPanicCtx{context.Background()}, 2, Limits{})
		return nil
	}()
	if r != (ctxPanic{}) {
		t.Fatalf("RunVectors panicked with %v and returned err %v, want the context's panic", r, err)
	}
}

// TestRunVectorsFailureCancelsLaterVectors: vector 0 faults at once
// (a[0] is 0 on it), while vector 1 goes on to an endless loop under a
// huge step budget. The call must end with vector 0's fault, not with
// the cancellation it caused in vector 1.
func TestRunVectorsFailureCancelsLaterVectors(t *testing.T) {
	src := strings.Replace(endlessProgram, "scalar s\nloop L1 {",
		"array a[2]\nscalar s\nloop L0 { s = mod(1, a[0]) }\nloop L1 {", 1)
	cp, err := Compile(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rs, err := cp.RunVectors(context.Background(), 2, Limits{MaxSteps: 1 << 50})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("call took %v: vector 1 was not canceled", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "input vector 0") || !strings.Contains(err.Error(), "mod by zero") {
		t.Fatalf("err = %v, want vector 0's mod by zero", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v reports the cancellation of a later vector", err)
	}
	if len(rs) != 0 {
		t.Fatalf("results = %v, want none", rs)
	}
}

// TestRunVectorsParentCanceled: when the caller's context ends, every
// vector is canceled and the error names the first of them.
func TestRunVectorsParentCanceled(t *testing.T) {
	cp, err := Compile(lang.MustParse(endlessProgram))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	rs, err := cp.RunVectors(ctx, 2, Limits{})
	if !errors.Is(err, ErrCanceled) || !strings.Contains(err.Error(), "input vector 0") {
		t.Fatalf("err = %v, want ErrCanceled naming input vector 0", err)
	}
	if len(rs) != 0 {
		t.Fatalf("results = %v, want none", rs)
	}
}
