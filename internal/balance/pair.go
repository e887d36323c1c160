package balance

import (
	"context"
	"fmt"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/transform"
	"repro/internal/verify"
)

// Pair is the before/after measurement of a program and its optimized
// form, the paper's Figure 8 comparison: the same machines, the same
// options, and a check that the two compute the same thing.
type Pair struct {
	// Before and After are the two programs' reports, one per machine
	// in the order given.
	Before, After []*Report
	// Deltas attributes the traffic change to the committed passes,
	// array by array. Nil unless the pair was measured with
	// Options.Profile and snapshots.
	Deltas []PassDelta
}

// MeasurePair measures an original program and its optimized form. Each
// runs once through Measure, teed to every machine in specs, with the
// same opts. The optimized program's observable results — prints, then
// the scalars both programs keep — must match the original's at tol (a
// non-positive tol means verify.DefaultTol); otherwise MeasurePair
// returns an error wrapping the *verify.Divergence, since a speed-up of
// a program that computes something else means nothing.
//
// With opts.Profile, snaps (the pipeline's committed-pass snapshots,
// transform.Outcome.Snapshots; the last one is opt) attribute the
// traffic change pass by pass: every snapshot but the last is measured
// once more, profiled, on specs[0].
func MeasurePair(ctx context.Context, orig, opt *ir.Program, snaps []transform.PassSnapshot, specs []machine.Spec, opts Options, tol float64) (*Pair, error) {
	before, err := Measure(ctx, orig, specs, opts)
	if err != nil {
		return nil, err
	}
	after, err := Measure(ctx, opt, specs, opts)
	if err != nil {
		return nil, err
	}
	if err := verify.CompareResults(before[0].Result, after[0].Result, tol); err != nil {
		return nil, fmt.Errorf("optimized program diverges from the original: %w", err)
	}
	pair := &Pair{Before: before, After: after}
	if !opts.Profile {
		return pair, nil
	}
	prev := before[0]
	for i, snap := range snaps {
		cur := after[0]
		if i < len(snaps)-1 {
			reps, err := Measure(ctx, snap.Program, specs[:1], Options{Limits: opts.Limits, Profile: true})
			if err != nil {
				return nil, fmt.Errorf("balance: pass-delta after %s: %w", snap.Pass, err)
			}
			cur = reps[0]
		}
		pair.Deltas = append(pair.Deltas, diffAttribution(snap.Pass, prev, cur))
		prev = cur
	}
	return pair, nil
}
