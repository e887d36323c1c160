package sim_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/transform"
	"repro/internal/verify"
)

// TestRegisteredMachinesPartition requires every registered machine to
// have at least three address bits inside every level's set index, so
// that a hierarchy on 8 CPUs simulates on 8 set partitions.
func TestRegisteredMachinesPartition(t *testing.T) {
	for _, e := range machine.Entries() {
		h := e.Spec.NewHierarchy()
		sim.ForcePartitions(h, 8)
		h.Strides([]sim.Stride{{Addr: 0, Step: 8, Size: 8}}, 1)
		if got := h.Partitions(); got != 8 {
			t.Errorf("%s: %d partitions, want 8", e.Spec.Name, got)
		}
	}
}

// TestPartitionLogDrainsWhenFull streams more strides than the access
// log holds through a partitioned hierarchy, so it drains while the run
// goes on, and requires every counter to match the sequential
// hierarchy's, at a mid-stream read and after Flush.
func TestPartitionLogDrainsWhenFull(t *testing.T) {
	cfgs := []sim.CacheConfig{
		{Name: "L1", Size: 1 << 10, LineSize: 32, Assoc: 2},
		{Name: "L2", Size: 1 << 13, LineSize: 64, Assoc: 4},
	}
	seq, par := sim.MustHierarchy(cfgs...), sim.MustHierarchy(cfgs...)
	sim.ForcePartitions(par, 4)
	acc := []sim.Stride{{Addr: 0, Step: 8, Size: 8}, {Addr: 1 << 16, Step: 8, Size: 8, Write: true, Site: 1}}
	for c := 0; c < 6000; c++ {
		for _, h := range []*sim.Hierarchy{seq, par} {
			h.Strides(slices.Clone(acc), 16)
			h.AddFlops(16)
		}
		for i := range acc {
			acc[i].Addr += 16 * acc[i].Step
		}
		if c == 3000 {
			if err := diffCounters(par, seq); err != nil {
				t.Fatalf("mid-stream: %v", err)
			}
		}
	}
	if par.Partitions() != 4 {
		t.Fatalf("%d partitions, want 4", par.Partitions())
	}
	seq.Flush()
	par.Flush()
	if err := diffCounters(par, seq); err != nil {
		t.Fatal(err)
	}
}

// fuzzPartitionLevels decodes one to three cache levels for the
// partition parity fuzz target: line sizes of 4 to 64 bytes, 1 to 4
// ways, and set counts that are mostly powers of two from 1 to 64 but
// sometimes 3, 5 or 6, each level write-back or write-through,
// write-allocate or not. Many draws share no set-index bit, and those
// hierarchies must stay sequential.
func fuzzPartitionLevels(s *byteStream) []sim.CacheConfig {
	n := 1 + s.next()%3
	cfgs := make([]sim.CacheConfig, n)
	for i := range cfgs {
		ls := 4 << (s.next() % 5)
		assoc := 1 + s.next()%4
		nsets := 1 << (s.next() % 7)
		if b := s.next(); b >= 224 {
			nsets = []int{3, 5, 6}[b%3]
		}
		flags := s.next()
		cfgs[i] = sim.CacheConfig{Name: "L", Size: ls * assoc * nsets, LineSize: ls, Assoc: assoc}
		if flags&1 != 0 {
			cfgs[i].Policy = sim.WriteThrough
		}
		cfgs[i].NoWriteAllocate = flags&2 != 0
	}
	return cfgs
}

// FuzzPartitionParity drives a hierarchy forced to 2, 4 or 8 set
// partitions and a sequential one with the same mixed stream, and
// requires every counter to agree at each check, Flush and
// ResetCounters and at the end. The stream mixes Strides chunks of one
// to four accesses (positive, negative and zero steps, some wider than
// a line) with single LoadSite and StoreSite calls of 1 to 130 bytes;
// AddFlops, a mid-stream EnableProfiling (which returns the hierarchy
// to sequential simulation) and counter reads fall in between, so the
// log builds up between checks.
func FuzzPartitionParity(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+r.Intn(1500))
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := byteStream(data)
		cfgs := fuzzPartitionLevels(&s)
		seq, err := sim.NewHierarchy(cfgs...)
		if err != nil {
			t.Fatal(err)
		}
		par := sim.MustHierarchy(cfgs...)
		k := 2 << (s.next() % 3)
		sim.ForcePartitions(par, k)
		size := func() int {
			if b := s.next(); b >= 192 {
				return 1 + b%130
			}
			return 8
		}
		for op := 0; len(s) > 0; op++ {
			kind := s.next() % 32
			addr := int64(s.next()|s.next()<<8) % 4096
			site := uint32(s.next() % 8)
			var acc []sim.Stride
			n := 1
			if kind < 16 {
				n = 1 + s.next()%200
				for i := 0; i < 1+kind%4; i++ {
					step := int64(int8(s.next()))
					if b := s.next(); b >= 240 {
						step *= 64
					}
					a := sim.Stride{Addr: addr + int64(s.next()|s.next()<<8)%4096, Step: step, Size: size(), Write: s.next()&1 != 0, Site: uint32(i)}
					// Keep every address of the chunk non-negative.
					a.Addr = max(a.Addr, -int64(n-1)*step)
					acc = append(acc, a)
				}
			}
			sz := size()
			for _, h := range []*sim.Hierarchy{seq, par} {
				switch {
				case kind < 16:
					h.Strides(slices.Clone(acc), n)
					h.AddFlops(int64(n))
				case kind < 22:
					h.LoadSite(addr, sz, site)
				case kind < 28:
					h.StoreSite(addr, sz, site)
				case kind == 28:
					h.Flush()
				case kind == 29:
					h.ResetCounters()
				case kind == 30:
					if h.Profile() == nil && op > 20 {
						h.EnableProfiling()
					}
				}
			}
			if kind >= 28 {
				if err := diffCounters(par, seq); err != nil {
					t.Fatalf("op %d (kind %d) on %+v in %d partitions: %v", op, kind, cfgs, par.Partitions(), err)
				}
			}
		}
		seq.Flush()
		par.Flush()
		if err := diffCounters(par, seq); err != nil {
			t.Fatalf("final flush on %+v in %d partitions: %v", cfgs, par.Partitions(), err)
		}
	})
}

// TestPartitionedSweepMatchesExpected runs every entry of perfbench's
// measure-sweep workload (fig7 and conv, original and optimized, over
// its size sweep on Origin2000 and SkylakeSP) on a hierarchy forced to
// 2, 4 or 8 set partitions, and requires each level's counters to
// equal the statistics the workload checks every op against.
func TestPartitionedSweepMatchesExpected(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole measure-sweep")
	}
	data, err := os.ReadFile("../../perfbench/testdata/sweep_stats.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]sim.Stats
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	entry := 0
	for _, k := range []struct {
		name  string
		build func(int) *ir.Program
	}{{"fig7", kernels.Fig7Original}, {"conv", kernels.Convolution}} {
		for _, m := range []struct {
			spec       machine.Spec
			minN, maxN int
		}{{machine.Origin2000(), 1 << 10, 1 << 20}, {machine.SkylakeSP(), 1 << 10, 1 << 19}} {
			for n := m.minN; n <= m.maxN; n *= 2 {
				orig := k.build(n)
				opt, _, err := transform.OptimizeVerifiedCtx(ctx, orig,
					transform.Config{Pipeline: transform.DefaultPipelineSpec, Verify: verify.ModeStructural})
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range []struct {
					variant string
					p       *ir.Program
				}{{"original", orig}, {"optimized", opt}} {
					key := fmt.Sprintf("%s/%s/%s/%d", k.name, v.variant, m.spec.Name, n)
					exp, ok := want[key]
					if !ok {
						t.Fatalf("%s: no expected statistics", key)
					}
					h := m.spec.NewHierarchy()
					parts := 2 << (entry % 3)
					entry++
					sim.ForcePartitions(h, parts)
					cp, err := exec.Compile(v.p)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := cp.RunCtx(ctx, h, exec.Limits{}); err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					got := make([]sim.Stats, h.Levels())
					for i := range got {
						got[i] = h.LevelStats(i)
					}
					if !slices.Equal(got, exp) {
						t.Errorf("%s in %d partitions: %+v, expected %+v", key, h.Partitions(), got, exp)
					}
				}
			}
		}
	}
	if entry != len(want) {
		t.Errorf("ran %d entries, expected statistics has %d", entry, len(want))
	}
}
