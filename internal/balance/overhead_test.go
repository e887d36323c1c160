package balance

import (
	"sort"
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
	p := kernels.Dmxpy(48)
	spec := machine.Origin2000()
	median := func(f func() error) time.Duration {
		var samples []time.Duration
		for i := 0; i < 5; i++ {
			begin := time.Now()
			if err := f(); err != nil {
				t.Fatal(err)
			}
			samples = append(samples, time.Since(begin))
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		return samples[len(samples)/2]
	}
	plain := median(func() error {
		_, err := measureOn(p, spec, Options{})
		return err
	})
	profiled := median(func() error {
		_, err := measureOn(p, spec, Options{Bounds: true, Profile: true})
		return err
	})
	if plain <= 0 {
		t.Skip("plain measurement below timer resolution")
	}
	if ratio := float64(profiled) / float64(plain); ratio > 8 {
		t.Fatalf("profiled measurement %.1fx the plain one (%v vs %v), ceiling 8x",
			ratio, profiled, plain)
	}
}
