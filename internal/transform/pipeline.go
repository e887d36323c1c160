package transform

import (
	"fmt"

	"repro/internal/ir"
)

// Action records one transformation applied — or one pass skipped —
// by the pipeline.
type Action struct {
	Pass    string // "fuse", "contract", "shrink", "store-elim"
	Nest    string // nest label (after fusion)
	Array   string // affected array, if any
	Note    string
	Skipped bool // the pass failed and was rolled back; Note holds the cause
}

// String renders the action for reports.
func (a Action) String() string {
	if a.Skipped {
		if a.Array == "" {
			return fmt.Sprintf("%s: SKIPPED (%s)", a.Pass, a.Note)
		}
		return fmt.Sprintf("%s: SKIPPED %s in %s (%s)", a.Pass, a.Array, a.Nest, a.Note)
	}
	if a.Array == "" {
		return fmt.Sprintf("%s: %s", a.Pass, a.Note)
	}
	return fmt.Sprintf("%s: %s in %s (%s)", a.Pass, a.Array, a.Nest, a.Note)
}

// Options selects which passes the pipeline runs.
type Options struct {
	Fuse            bool
	ReduceStorage   bool // contraction + shrinking
	EliminateStores bool
}

// All enables every pass — the paper's full strategy.
func All() Options { return Options{Fuse: true, ReduceStorage: true, EliminateStores: true} }

// Optimize runs the paper's compiler strategy on a program: bandwidth-
// minimal loop fusion first (localizing array live ranges), then
// storage reduction (array contraction and shrinking), then store
// elimination. It returns the optimized program and a log of applied
// actions. The input program is never modified.
//
// Optimize is the compatibility entry point: it runs the checkpointed
// pass manager with verification off, so each transformation is still
// panic-contained, validated before acceptance, and rolled back on
// failure. Use OptimizeVerified to select structural or differential
// verification and inspect the degradation report.
func Optimize(p *ir.Program, opt Options) (*ir.Program, []Action, error) {
	q, out, err := OptimizeVerified(p, Config{Options: opt})
	if err != nil {
		return nil, nil, err
	}
	return q, out.Actions, nil
}
