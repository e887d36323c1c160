package verify

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/trace"
)

// DefaultTol is the relative tolerance used by differential checks
// when the caller passes a non-positive tolerance. It matches the
// equivalence tolerance of the transform test suite: transformations
// may reassociate floating-point arithmetic but not change values
// beyond rounding.
const DefaultTol = 1e-9

// Divergence reports the first observable difference between an
// original and a transformed run. It implements error; the pipeline
// wraps it in a PassError carrying the attribution to the failing
// pass.
type Divergence struct {
	Kind  string // "print-count", "print" or "scalar"
	Index int    // print index, for Kind "print"
	Name  string // scalar name, for Kind "scalar"
	Want  float64
	Got   float64
}

func (d *Divergence) Error() string {
	switch d.Kind {
	case "print-count":
		return fmt.Sprintf("verify: print count diverged: original prints %d values, transformed %d",
			int(d.Want), int(d.Got))
	case "print":
		return fmt.Sprintf("verify: print %d diverged: original %g, transformed %g", d.Index, d.Want, d.Got)
	default:
		return fmt.Sprintf("verify: scalar %s diverged: original %g, transformed %g", d.Name, d.Want, d.Got)
	}
}

// approxEqual is relative-tolerance equality, matching the transform
// test suite's notion of equivalence.
func approxEqual(a, b, tol float64) bool {
	return a == b || math.Abs(a-b) <= tol*(1+math.Abs(a))
}

// CompareResults compares two execution results at the observability
// boundary: printed values in order, then final values of scalars
// present in both results (storage reduction introduces and removes
// scalars, so only shared names are comparable). Arrays are not
// compared — store elimination legally removes writebacks, so final
// array contents may differ between semantically equivalent programs.
// It returns a *Divergence describing the first difference, or nil.
func CompareResults(ref, got *exec.Result, tol float64) error {
	if tol <= 0 {
		tol = DefaultTol
	}
	if len(ref.Prints) != len(got.Prints) {
		return &Divergence{Kind: "print-count", Want: float64(len(ref.Prints)), Got: float64(len(got.Prints))}
	}
	for i := range ref.Prints {
		if !approxEqual(ref.Prints[i], got.Prints[i], tol) {
			return &Divergence{Kind: "print", Index: i, Want: ref.Prints[i], Got: got.Prints[i]}
		}
	}
	shared := make([]string, 0, len(ref.Scalars))
	for name := range ref.Scalars {
		if _, ok := got.Scalars[name]; ok {
			shared = append(shared, name)
		}
	}
	sort.Strings(shared)
	for _, name := range shared {
		if !approxEqual(ref.Scalars[name], got.Scalars[name], tol) {
			return &Divergence{Kind: "scalar", Name: name, Want: ref.Scalars[name], Got: got.Scalars[name]}
		}
	}
	return nil
}

// Differential runs the original and transformed programs functionally
// (no machine model) and compares their results with CompareResults.
// Execution is fully deterministic: arrays start zero-filled and every
// ReadInput statement consumes the interpreter's seeded pseudo-input
// stream, so the two programs observe identical external data.
func Differential(orig, xform *ir.Program, tol float64) error {
	return DifferentialCtx(context.Background(), orig, xform, tol, exec.Limits{})
}

// DifferentialCtx is Differential with cancellation and a step budget
// threaded into both runs. It returns an error wrapping
// exec.ErrCanceled (or exec.ErrStepBudget) when a run is cut short, so
// callers can distinguish an abandoned check from a real divergence.
func DifferentialCtx(ctx context.Context, orig, xform *ir.Program, tol float64, lim exec.Limits) error {
	ref, err := exec.RunCtx(ctx, orig, nil, lim)
	if err != nil {
		return fmt.Errorf("verify: reference run failed: %w", err)
	}
	return DifferentialAgainstCtx(ctx, ref, xform, tol, lim)
}

// DifferentialAgainstCtx compares a transformed program against an
// already-computed reference result, so a pipeline verifying many
// checkpoints runs the original only once. Cancellation and a step
// budget are threaded into the transformed run.
func DifferentialAgainstCtx(ctx context.Context, ref *exec.Result, xform *ir.Program, tol float64, lim exec.Limits) error {
	ctx, span := trace.StartSpan(ctx, "verify.differential")
	got, err := exec.RunCtx(ctx, xform, nil, lim)
	if err != nil {
		span.End(trace.String("error", err.Error()))
		return fmt.Errorf("verify: transformed run failed: %w", err)
	}
	err = CompareResults(ref, got, tol)
	if err != nil {
		span.End(trace.String("verdict", "diverged"), trace.String("error", err.Error()))
		return err
	}
	span.End(trace.String("verdict", "equivalent"))
	return nil
}

// StructuralCtx runs the deep structural verifier under a trace span
// parented at ctx. The check itself has no cancellation points (it is
// pure static analysis, microseconds of work); the context exists only
// to attribute its cost in the pipeline trace.
func StructuralCtx(ctx context.Context, p *ir.Program) error {
	_, span := trace.StartSpan(ctx, "verify.structural")
	err := Structural(p)
	if err != nil {
		span.End(trace.String("verdict", "rejected"), trace.String("error", err.Error()))
		return err
	}
	span.End(trace.String("verdict", "ok"))
	return nil
}
