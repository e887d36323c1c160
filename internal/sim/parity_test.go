package sim_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/sim"
)

// simulator is what the parity checks read from the fast Hierarchy and
// from the reference Oracle alike.
type simulator interface {
	exec.Machine
	Levels() int
	LevelStats(i int) sim.Stats
	ChannelBytes() []int64
	Profile() *sim.Profile
	MRC() *sim.MRCRecorder
	EnableProfiling()
	EnableMRC() error
	ResetCounters()
}

var (
	_ simulator = (*sim.Hierarchy)(nil)
	_ simulator = (*sim.Oracle)(nil)
)

// scalars returns a simulator's plain counters: register-channel load
// and store bytes, flops, and memory-interface reads and writes.
func scalars(h simulator) [5]int64 {
	switch h := h.(type) {
	case *sim.Hierarchy:
		return [5]int64{h.RegLoadBytes, h.RegStoreBytes, h.Flops, h.MemReads, h.MemWrites}
	case *sim.Oracle:
		return [5]int64{h.RegLoadBytes, h.RegStoreBytes, h.Flops, h.MemReads, h.MemWrites}
	}
	panic(fmt.Sprintf("scalars: %T", h))
}

// newPair builds the fast hierarchy and the oracle over the same
// levels, with profiling and reuse-distance recording switched on in
// both or in neither.
func newPair(cfgs []sim.CacheConfig, profile, mrc bool) (*sim.Hierarchy, *sim.Oracle, error) {
	h, err := sim.NewHierarchy(cfgs...)
	if err != nil {
		return nil, nil, err
	}
	o, err := sim.NewOracle(cfgs...)
	if err != nil {
		return nil, nil, err
	}
	for _, s := range []simulator{h, o} {
		if profile {
			s.EnableProfiling()
		}
		if mrc {
			if err := s.EnableMRC(); err != nil {
				return nil, nil, err
			}
		}
	}
	return h, o, nil
}

// diffCounters reports the first counter on which got and want differ:
// every level's Stats, the channel bytes, the plain counters, and the
// per-site buckets and register bytes when profiling is on. The counter
// methods come first: a partitioned hierarchy's fields are current only
// after one.
func diffCounters(got, want simulator) error {
	for i := 0; i < want.Levels(); i++ {
		if g, w := got.LevelStats(i), want.LevelStats(i); g != w {
			return fmt.Errorf("level %d stats %+v, oracle %+v", i, g, w)
		}
	}
	if g, w := got.ChannelBytes(), want.ChannelBytes(); !slices.Equal(g, w) {
		return fmt.Errorf("channel bytes %v, oracle %v", g, w)
	}
	if g, w := scalars(got), scalars(want); g != w {
		return fmt.Errorf("regLoad, regStore, flops, memReads, memWrites = %v, oracle %v", g, w)
	}
	gp, wp := got.Profile(), want.Profile()
	if (gp == nil) != (wp == nil) {
		return fmt.Errorf("profile present %v, oracle %v", gp != nil, wp != nil)
	}
	for i := 0; wp != nil && i < want.Levels(); i++ {
		if g, w := gp.SiteStats(i), wp.SiteStats(i); !slices.Equal(g, w) {
			return fmt.Errorf("level %d site stats %+v, oracle %+v", i, g, w)
		}
	}
	if wp != nil && !slices.Equal(gp.RegBytes(), wp.RegBytes()) {
		return fmt.Errorf("register bytes by site %v, oracle %v", gp.RegBytes(), wp.RegBytes())
	}
	return nil
}

// diffMRC compares two reuse-distance recorders at every associativity
// from 1 to one past the curve's flat end, in total and per site, and
// their phase timelines at several aggregations.
func diffMRC(got, want *sim.MRCRecorder) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("mrc present %v, oracle %v", got != nil, want != nil)
	}
	if want == nil {
		return nil
	}
	if got.Accesses() != want.Accesses() {
		return fmt.Errorf("mrc accesses %d, oracle %d", got.Accesses(), want.Accesses())
	}
	for i := 0; i < want.Levels(); i++ {
		top := want.MaxAssoc(i)
		if g := got.MaxAssoc(i); g != top {
			return fmt.Errorf("level %d max assoc %d, oracle %d", i, g, top)
		}
		sites := want.Sites(i)
		if g := got.Sites(i); !slices.Equal(g, sites) {
			return fmt.Errorf("level %d sites %v, oracle %v", i, g, sites)
		}
		for a := int64(1); a <= top+1; a++ {
			if g, w := got.Eval(i, a), want.Eval(i, a); g != w {
				return fmt.Errorf("level %d Eval(%d) %+v, oracle %+v", i, a, g, w)
			}
			for _, s := range sites {
				if g, w := got.EvalSite(i, s, a), want.EvalSite(i, s, a); g != w {
					return fmt.Errorf("level %d EvalSite(%d, %d) %+v, oracle %+v", i, s, a, g, w)
				}
			}
		}
	}
	for _, n := range []int{1, 7, 64, 512} {
		if g, w := got.Epochs(n), want.Epochs(n); !reflect.DeepEqual(g, w) {
			return fmt.Errorf("Epochs(%d) %+v, oracle %+v", n, g, w)
		}
	}
	return nil
}

// parityKernels are the built-in kernels of the service's registry
// (internal/service/kernels.go), at sizes that overflow the scaled
// machines' caches while keeping the oracle runs short.
func parityKernels() map[string]*ir.Program {
	const n1 = 3000 // one-dimensional kernels: 24 KB per array
	ps := map[string]*ir.Program{
		"sec21-write": kernels.Sec21Write(n1),
		"sec21-read":  kernels.Sec21Read(n1),
		"sec21":       kernels.Sec21Pair(n1),
		"fig6a":       kernels.Fig6Original(24),
		"fig6b":       kernels.Fig6Fused(24),
		"fig6c":       kernels.Fig6ShrunkPeeled(24),
		"fig7":        kernels.Fig7Original(n1),
		"fig8":        kernels.Fig8Workload(n1),
		"conv":        kernels.Convolution(n1),
		"dmxpy":       kernels.Dmxpy(40),
		"matmul":      kernels.MatmulJKI(16),
		"fft":         kernels.MustFFT(256),
		"sp":          kernels.SP(6),
		"sweep3d":     kernels.Sweep3D(6, 2),
	}
	for _, name := range kernels.StrideKernelNames {
		ps["stride-"+name] = kernels.MustStrideKernel(name, n1)
	}
	return ps
}

// TestHierarchyMatchesOracleOnKernels runs every built-in kernel on
// every registered machine, at its own geometry and with its caches
// scaled down 64-fold so every level evicts, through the compiled
// engine twice: once on the fast Hierarchy and once on the reference
// Oracle. With profiling off and on and reuse-distance recording off
// and on, every counter, per-site bucket, miss-ratio curve point and
// timeline epoch must agree. A plain hierarchy forced to switch to 2,
// 4 or 8 set partitions at its first batched chunk must agree with the
// oracle too.
func TestHierarchyMatchesOracleOnKernels(t *testing.T) {
	var specs []machine.Spec
	for _, e := range machine.Entries() {
		specs = append(specs, e.Spec, machine.Scaled(e.Spec, 64))
	}
	for name, p := range parityKernels() {
		p = p.Clone()
		ir.AssignSites(p)
		cp, err := exec.Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, spec := range specs {
				for _, mode := range []struct{ profile, mrc bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
					h, o, err := newPair(spec.Caches, mode.profile, mode.mrc)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range []simulator{h, o} {
						if _, err := cp.Run(m); err != nil {
							t.Fatalf("%s: %v", spec.Name, err)
						}
					}
					if err := diffCounters(h, o); err != nil {
						t.Fatalf("%s profile=%v mrc=%v: %v", spec.Name, mode.profile, mode.mrc, err)
					}
					if err := diffMRC(h.MRC(), o.MRC()); err != nil {
						t.Fatalf("%s profile=%v mrc=%v: %v", spec.Name, mode.profile, mode.mrc, err)
					}
					if mode.profile || mode.mrc {
						continue
					}
					for _, k := range []int{2, 4, 8} {
						h := sim.MustHierarchy(spec.Caches...)
						sim.ForcePartitions(h, k)
						if _, err := cp.Run(h); err != nil {
							t.Fatalf("%s: %v", spec.Name, err)
						}
						if err := diffCounters(h, o); err != nil {
							t.Fatalf("%s in %d partitions: %v", spec.Name, h.Partitions(), err)
						}
					}
				}
			}
		})
	}
}
