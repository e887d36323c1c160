package core

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/report"
)

// MRCStudy sweeps the paper kernels through the one-pass reuse-distance
// recorder on every registered machine model, before and after the
// default pipeline: where does each kernel's capacity knee sit — the
// smallest fast memory at which its memory-channel demand meets the
// machine's balance — and how far left does the optimizer move it?
// The raw byte columns are unformatted so machine consumers (CI,
// EXPERIMENTS.md tooling) can parse them; a knee of -1 means the
// compulsory floor exceeds the machine's balance at any capacity.
func MRCStudy(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title:   "Capacity knees: smallest fast memory meeting machine balance (reuse-distance sweep)",
		Headers: []string{"machine", "kernel", "balance B/F", "floor orig", "floor opt", "knee orig B", "knee opt B", "shift"},
	}
	rows := []struct {
		name string
		p    *ir.Program
	}{
		{"convolution", kernels.Convolution(cfg.ConvN)},
		{"dmxpy", kernels.Dmxpy(cfg.DmxpyN)},
		{"mm-jki", kernels.MatmulJKI(cfg.MMN)},
		{"fig6", kernels.Fig6Original(cfg.Fig6N)},
		{"fig7", kernels.Fig7Original(cfg.Fig8N)},
	}
	optimized := make([]*ir.Program, len(rows))
	for i, k := range rows {
		var err error
		if optimized[i], _, err = Optimize(k.p); err != nil {
			return nil, fmt.Errorf("optimize %s: %w", k.name, err)
		}
	}
	// The reuse-distance analysis rides on a measurement's primary
	// machine, so each machine measures every pair once.
	for _, spec := range cfg.machines() {
		for i, k := range rows {
			pair, err := measurePair(k.p, optimized[i], []machine.Spec{spec}, balance.Options{MRC: true})
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", k.name, spec.Name, err)
			}
			kb := pair.Before[0].MRC.Knee(spec.Name)
			ka := pair.After[0].MRC.Knee(spec.Name)
			if kb == nil || ka == nil {
				return nil, fmt.Errorf("%s on %s: no knee against own machine", k.name, spec.Name)
			}
			t.AddRow(spec.Name, k.name,
				report.F(kb.MachineBalance, 3),
				report.F(kb.FloorBF, 3), report.F(ka.FloorBF, 3),
				fmt.Sprint(rawKnee(kb)), fmt.Sprint(rawKnee(ka)),
				balance.KneeShift(kb, ka))
		}
	}
	t.AddNote("knee = smallest fast-memory capacity (machine's own sets x line, ways swept) with demand <= balance; -1 = never")
	t.AddNote("floor = compulsory bytes per flop once the working set fits; shift is optimized vs original knee")
	return t, nil
}

func rawKnee(k *balance.MRCKnee) int64 {
	if !k.Met {
		return -1
	}
	return k.KneeBytes
}
