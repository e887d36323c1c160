package verify

import (
	"context"
	"errors"
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
	Vector int    // input vector of the diverging runs (see Vectors)
	Kind   string // "print-count", "print" or "scalar"
	Index  int    // print index, for Kind "print"
	Name   string // scalar name, for Kind "scalar"
	Want   float64
	Got    float64
}

func (d *Divergence) Error() string {
	var what string
	switch d.Kind {
	case "print-count":
		what = fmt.Sprintf("print count diverged: original prints %d values, transformed %d",
			int(d.Want), int(d.Got))
	case "print":
		what = fmt.Sprintf("print %d diverged: original %g, transformed %g", d.Index, d.Want, d.Got)
	default:
		what = fmt.Sprintf("scalar %s diverged: original %g, transformed %g", d.Name, d.Want, d.Got)
	}
	return fmt.Sprintf("verify: input vector %d: %s", d.Vector, what)
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
	if d := compare(ref, got, tol); d != nil {
		return d
	}
	return nil
}

// compare is CompareResults with a concrete result type, so a caller
// can say which input vector diverged.
func compare(ref, got *exec.Result, tol float64) *Divergence {
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

// Vectors is the number of input vectors a differential check compares
// over. Vector 0 is the plain run: zero-filled arrays and the seeded
// input stream. Vector 1 starts every array element at a value seeded
// from the array's name and offset and shifts the input stream (see
// exec.Compiled.RunVectors), so a rewrite that is right only when
// arrays start at zero — one that drops a read of an array's incoming
// values, say — diverges on it.
const Vectors = 2

// BaselineCtx compiles the original program once and runs it over the
// Vectors input vectors, returning one reference result per vector for
// DifferentialAgainstCtx. When the original fails on a vector, the
// results of the vectors before it are returned with the error: the
// failing vector and those after it are dropped, and a caller may go on
// comparing over the rest. An empty result means vector 0 failed, and
// there is nothing to compare against. Errors wrap exec.ErrCanceled or
// exec.ErrStepBudget when a run was cut short.
func BaselineCtx(ctx context.Context, orig *ir.Program, lim exec.Limits) ([]*exec.Result, error) {
	cp, err := exec.Compile(orig)
	if err != nil {
		return nil, fmt.Errorf("verify: reference program does not compile: %w", err)
	}
	refs, err := cp.RunVectors(ctx, Vectors, lim)
	if err != nil {
		return refs, fmt.Errorf("verify: reference run failed: %w", err)
	}
	return refs, nil
}

// DifferentialAgainstCtx compares a transformed program against the
// reference results of BaselineCtx, so a pipeline verifying many
// checkpoints runs the original only once. It compiles the transformed
// program and runs it over the first len(refs) input vectors on the
// compiled engine, with cancellation and the step budget threaded into
// every run; an error wrapping exec.ErrCanceled or exec.ErrStepBudget
// means the check was cut short rather than failed. It returns a
// *Divergence for the first vector whose results differ.
func DifferentialAgainstCtx(ctx context.Context, refs []*exec.Result, xform *ir.Program, tol float64, lim exec.Limits) error {
	ctx, span := trace.StartSpan(ctx, "verify.differential", trace.Int("vectors", int64(len(refs))))
	err := differential(ctx, refs, xform, tol, lim)
	switch {
	case err == nil:
		span.End(trace.String("verdict", "equivalent"))
	case errors.As(err, new(*Divergence)):
		span.End(trace.String("verdict", "diverged"), trace.String("error", err.Error()))
	default:
		span.End(trace.String("error", err.Error()))
	}
	return err
}

func differential(ctx context.Context, refs []*exec.Result, xform *ir.Program, tol float64, lim exec.Limits) error {
	cp, err := exec.Compile(xform)
	if err != nil {
		return fmt.Errorf("verify: transformed program does not compile: %w", err)
	}
	got, err := cp.RunVectors(ctx, len(refs), lim)
	if err != nil {
		return fmt.Errorf("verify: transformed run failed: %w", err)
	}
	for v, ref := range refs {
		if d := compare(ref, got[v], tol); d != nil {
			d.Vector = v
			return d
		}
	}
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
