// Package core is the public façade of the reproduction: one-call
// analysis (program balance on a machine model), one-call optimization
// (the paper's fuse → reduce-storage → eliminate-stores strategy), and
// the experiment runners that regenerate every table and figure of the
// paper's evaluation (see experiments.go).
//
// Typical use:
//
//	p := lang.MustParse(src)
//	rep, _ := core.Analyze(p, machine.Origin2000())
//	fmt.Println(rep)                       // balance, ratios, bound
//	q, actions, _ := core.Optimize(p)      // the paper's strategy
//	pair, _ := balance.MeasurePair(ctx, p, q, nil,
//		[]machine.Spec{machine.Origin2000()}, balance.Options{}, 0)
//	fmt.Println(balance.Speedup(pair.Before[0], pair.After[0]))
package core

import (
	"context"

	"repro/internal/balance"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/transform"
)

// Analyze runs the program on the machine model and returns its
// balance report: per-channel traffic, program vs machine balance,
// demand/supply ratios, CPU-utilization bound, predicted time and
// effective memory bandwidth.
func Analyze(p *ir.Program, spec machine.Spec) (*balance.Report, error) {
	reps, err := balance.Measure(context.Background(), p, []machine.Spec{spec}, balance.Options{})
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// measurePair measures an original program and its optimized form on
// every machine in specs, one run each, and fails if the optimized
// program computes something else (balance.MeasurePair at the default
// tolerance).
func measurePair(orig, opt *ir.Program, specs []machine.Spec, opts balance.Options) (*balance.Pair, error) {
	return balance.MeasurePair(context.Background(), orig, opt, nil, specs, opts, 0)
}

// Optimize applies the paper's full bandwidth-reduction strategy —
// bandwidth-minimal loop fusion, storage reduction (contraction and
// shrinking), store elimination — returning the optimized program and
// the actions taken.
func Optimize(p *ir.Program) (*ir.Program, []transform.Action, error) {
	q, out, err := transform.OptimizeVerified(p, transform.Config{Pipeline: transform.DefaultPipelineSpec})
	if err != nil {
		return nil, nil, err
	}
	return q, out.Actions, nil
}
