package core

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/report"
)

// OptimalityGap measures the paper kernels against the data-movement
// lower bound (internal/bounds) on every registered machine model,
// before and after the verified default pipeline: how close does
// measured traffic sit to the floor any schedule must pay, and how
// much of the distance does the optimizer close? Iterating the whole
// registry doubles as the bound-soundness sweep — CI asserts every
// machine/kernel row keeps gap >= 1.0. The raw byte columns are
// unformatted so machine consumers (CI, EXPERIMENTS.md tooling) can
// parse them.
func OptimalityGap(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title:   "Optimality gap: measured traffic vs data-movement lower bound",
		Headers: []string{"machine", "kernel", "variant", "measured B", "bound B", "bound kind", "gap"},
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
	// One run per program serves every machine's measurement and bound;
	// the rows are then emitted machine by machine.
	machines := cfg.machines()
	pairs := make([]*balance.Pair, len(rows))
	for i, k := range rows {
		opt, _, err := Optimize(k.p)
		if err != nil {
			return nil, fmt.Errorf("optimize %s: %w", k.name, err)
		}
		if pairs[i], err = measurePair(k.p, opt, machines, balance.Options{Bounds: true}); err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
	}
	for mi, spec := range machines {
		for i, k := range rows {
			addGapRow(t, spec.Name, k.name, "original", pairs[i].Before[mi])
			addGapRow(t, spec.Name, k.name, "optimized", pairs[i].After[mi])
		}
	}
	t.AddNote("bound: max of compulsory live-in/live-out traffic and the red-blue pebbling S-partition bound")
	t.AddNote("gap = measured/bound; a sound bound keeps every gap >= 1.00x, and 1.00x means provably minimal traffic")
	return t, nil
}

func addGapRow(t *report.Table, mach, kernel, variant string, r *balance.Report) {
	bound, kind := int64(0), "none"
	if r.Bound != nil {
		bound, kind = r.Bound.Best.Bytes, r.Bound.Best.Kind
	}
	t.AddRow(mach, kernel, variant, fmt.Sprint(r.MemoryBytes), fmt.Sprint(bound), kind,
		report.Gap(r.OptimalityGap))
}
