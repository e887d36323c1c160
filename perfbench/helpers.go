package main

import (
	"context"
	"math"
	"sort"

	"repro/internal/balance"
	"repro/internal/bounds"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/machine"
)

// measureGap measures p's slow-memory traffic on spec and its gap to
// the data-movement lower bound (0 when the bound has no information).
func measureGap(ctx context.Context, p *ir.Program, spec machine.Spec) (int64, float64, error) {
	rep, err := balance.MeasureCtx(ctx, p, spec, exec.Limits{})
	if err != nil {
		return 0, 0, err
	}
	a, err := bounds.Analyze(ctx, p, bounds.FastCapacity(spec), exec.Limits{})
	if err != nil {
		return 0, 0, err
	}
	return rep.MemoryBytes, bounds.Gap(rep.MemoryBytes, a.Best), nil
}

// geomean is the geometric mean of the positive values of xs; values
// that carry no information (0) are skipped.
func geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mostCommon returns the key with the largest count (the smallest key
// among ties).
func mostCommon(counts map[string]int) string {
	best, bestN := "", -1
	for _, k := range sortedKeys(counts) {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	return best
}
