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
//	rep2, _ := core.Analyze(q, machine.Origin2000())
//	fmt.Println(balance.Speedup(rep, rep2))
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
	return measureOn(p, spec, balance.Options{})
}

// measureOn measures p on one machine.
func measureOn(p *ir.Program, spec machine.Spec, opts balance.Options) (*balance.Report, error) {
	reps, err := balance.Measure(context.Background(), p, []machine.Spec{spec}, opts)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// Optimize applies the paper's full bandwidth-reduction strategy —
// bandwidth-minimal loop fusion, storage reduction (contraction and
// shrinking), store elimination — returning the optimized program and
// the actions taken.
func Optimize(p *ir.Program) (*ir.Program, []transform.Action, error) {
	return transform.Optimize(p, transform.All())
}

// Speedup compares two balance reports (before/after).
func Speedup(before, after *balance.Report) float64 {
	return balance.Speedup(before, after)
}
