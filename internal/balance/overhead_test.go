package balance

import (
	"slices"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
)

// TestProfilingOffPathInert pins the profiling-off contract: a plain
// Measure must neither build an attribution nor leave site IDs behind
// on the caller's program, and a profiled one must do its site
// assignment on a private clone so a program shared with unprofiled
// callers never observes mutation. The off path being byte-for-byte the
// pre-profiler measurement code is what makes its overhead a concern of
// the repo benchmark's measure-sweep workload rather than something a
// single binary can compare against itself.
func TestProfilingOffPathInert(t *testing.T) {
	p := kernels.Dmxpy(24)
	r, err := measureOn(p, machine.Origin2000(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Attribution != nil {
		t.Fatal("MeasureCtx produced an attribution without profiling")
	}
	rp, err := measureOn(p, machine.Origin2000(), Options{Bounds: true, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Attribution == nil || len(rp.Attribution.Arrays) == 0 {
		t.Fatal("MeasureProfiled produced no attribution")
	}
	var tainted int
	for _, n := range p.Nests {
		ir.WalkRefs(n.Body, p, func(r *ir.Ref, _ bool) {
			if r.Site != 0 {
				tainted++
			}
		})
	}
	if tainted > 0 {
		t.Fatalf("MeasureProfiled left %d site IDs on the shared program", tainted)
	}
}

// TestProfilingOnOverheadGuard bounds the profiling-on cost: one
// attributed measurement (site-tagged clone, per-site bucketing,
// bounds analysis, attribution assembly) must stay within a generous
// constant factor of one plain measurement. The plain side runs its
// loops batched and the profiled one, teed to the bounds recorder, per
// iteration, so the ratio is about 1.4-2.2x on a 2-CPU VM; the 8x
// ceiling only trips if attribution stops being O(accesses) — e.g. a
// per-access allocation or a quadratic site-table walk sneaking into
// the hot path.
func TestProfilingOnOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	ratio, plain, profiled := overheadRatio(t, Options{Bounds: true, Profile: true})
	if plain <= 0 {
		t.Skip("plain measurement below timer resolution")
	}
	if ratio > 8 {
		t.Fatalf("profiled measurement %.1fx the plain one (median pair ratio; medians %v vs %v), ceiling 8x",
			ratio, profiled, plain)
	}
}

// overheadSamples is the number of measurement pairs overheadRatio
// times.
const overheadSamples = 21

// overheadRatio times overheadSamples pairs of measurements of
// dmxpy(48) on Origin2000, one plain and one with opts, alternating
// which of the two runs first, and returns the median of the pairs'
// ratios with the median time of each side. Timing the two sides in
// alternation, a pair at a time, lets a burst of load from other tests
// land on both sides instead of on one.
func overheadRatio(t *testing.T, opts Options) (ratio float64, plain, other time.Duration) {
	t.Helper()
	p := kernels.Dmxpy(48)
	spec := machine.Origin2000()
	timed := func(o Options) time.Duration {
		begin := time.Now()
		if _, err := measureOn(p, spec, o); err != nil {
			t.Fatal(err)
		}
		return time.Since(begin)
	}
	var ratios []float64
	var plains, others []time.Duration
	for i := 0; i < overheadSamples; i++ {
		var a, b time.Duration
		if i%2 == 0 {
			a = timed(Options{})
			b = timed(opts)
		} else {
			b = timed(opts)
			a = timed(Options{})
		}
		plains, others = append(plains, a), append(others, b)
		if a > 0 {
			ratios = append(ratios, float64(b)/float64(a))
		}
	}
	slices.Sort(plains)
	slices.Sort(others)
	plain, other = plains[len(plains)/2], others[len(others)/2]
	if len(ratios) == 0 {
		return 0, 0, other
	}
	slices.Sort(ratios)
	return ratios[len(ratios)/2], plain, other
}
