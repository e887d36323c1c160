package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// tiny returns a 2-level hierarchy small enough to force evictions:
// L1 = 4 lines of 32B direct-mapped... use 2-way: 256B, L2 = 1KB 2-way 64B.
func tiny() *Hierarchy {
	return MustHierarchy(
		CacheConfig{Name: "L1", Size: 256, LineSize: 32, Assoc: 2},
		CacheConfig{Name: "L2", Size: 1024, LineSize: 64, Assoc: 2},
	)
}

func TestConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{Name: "x", Size: 0, LineSize: 32, Assoc: 1},
		{Name: "x", Size: 128, LineSize: 24, Assoc: 1},  // not power of two
		{Name: "x", Size: 100, LineSize: 32, Assoc: 1},  // not divisible
		{Name: "x", Size: 128, LineSize: 32, Assoc: -1}, // bad assoc
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: config %+v should be invalid", i, c)
		}
	}
	ok := CacheConfig{Name: "L1", Size: 32768, LineSize: 32, Assoc: 2}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewHierarchyRequiresLevel(t *testing.T) {
	if _, err := NewHierarchy(); err == nil {
		t.Fatal("empty hierarchy should fail")
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := tiny()
	h.Load(0, 8)
	s := h.LevelStats(0)
	if s.ReadMisses != 1 || s.Reads != 1 {
		t.Fatalf("first access: %+v", s)
	}
	h.Load(8, 8) // same L1 line
	s = h.LevelStats(0)
	if s.ReadMisses != 1 || s.Reads != 2 {
		t.Fatalf("second access should hit: %+v", s)
	}
}

func TestLineSpanningAccess(t *testing.T) {
	h := tiny()
	h.Load(30, 8) // spans lines at 0 and 32
	s := h.LevelStats(0)
	if s.Reads != 2 || s.ReadMisses != 2 {
		t.Fatalf("spanning access: %+v", s)
	}
	if h.RegLoadBytes != 8 {
		t.Fatalf("register bytes counted per access, got %d", h.RegLoadBytes)
	}
}

func TestWriteAllocateFetches(t *testing.T) {
	h := tiny()
	h.Store(0, 8)
	s0 := h.LevelStats(0)
	if s0.WriteMisses != 1 {
		t.Fatalf("store miss: %+v", s0)
	}
	// Write-allocate must have fetched the line from L2 (and L2 from mem).
	if s0.BytesIn != 32 {
		t.Fatalf("L1 BytesIn = %d, want 32", s0.BytesIn)
	}
	if h.MemReads != 1 {
		t.Fatalf("mem reads = %d, want 1 (L2 line fill)", h.MemReads)
	}
	if h.MemWrites != 0 {
		t.Fatal("no memory writes before eviction/flush")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	// Direct-mapped single-line L1 to force eviction of a dirty line.
	h := MustHierarchy(
		CacheConfig{Name: "L1", Size: 32, LineSize: 32, Assoc: 1},
		CacheConfig{Name: "L2", Size: 4096, LineSize: 32, Assoc: 1},
	)
	h.Store(0, 8)  // dirty line 0
	h.Load(512, 8) // maps to same set, evicts dirty line
	s0 := h.LevelStats(0)
	if s0.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", s0.Writebacks)
	}
	if s0.BytesOut != 32 {
		t.Fatalf("BytesOut = %d, want 32", s0.BytesOut)
	}
}

func TestFlushWritesDirtyLines(t *testing.T) {
	h := tiny()
	h.Store(0, 8)
	h.Store(64, 8)
	h.Flush()
	if h.MemWrites == 0 {
		t.Fatal("flush must push dirty lines to memory")
	}
	// Flushing twice must be idempotent.
	w := h.MemWrites
	h.Flush()
	if h.MemWrites != w {
		t.Fatal("second flush wrote again")
	}
}

func TestWriteThroughPropagates(t *testing.T) {
	h := MustHierarchy(
		CacheConfig{Name: "L1", Size: 256, LineSize: 32, Assoc: 2, Policy: WriteThrough},
		CacheConfig{Name: "L2", Size: 4096, LineSize: 32, Assoc: 2},
	)
	h.Store(0, 8)
	h.Store(0, 8) // hit, still propagates
	s0 := h.LevelStats(0)
	if s0.BytesOut != 64 {
		t.Fatalf("write-through BytesOut = %d, want 64", s0.BytesOut)
	}
	if h.LevelStats(1).Writes != 2 {
		t.Fatalf("L2 writes = %d, want 2", h.LevelStats(1).Writes)
	}
}

func TestNoWriteAllocate(t *testing.T) {
	h := MustHierarchy(
		CacheConfig{Name: "L1", Size: 256, LineSize: 32, Assoc: 2, Policy: WriteThrough, NoWriteAllocate: true},
		CacheConfig{Name: "L2", Size: 4096, LineSize: 32, Assoc: 2},
	)
	h.Store(0, 8)
	s0 := h.LevelStats(0)
	if s0.BytesIn != 0 {
		t.Fatalf("no-write-allocate fetched a line: %+v", s0)
	}
	// A subsequent load must still miss (line was not installed).
	h.Load(0, 8)
	if h.LevelStats(0).ReadMisses != 1 {
		t.Fatal("line should not have been installed by the store")
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 1 set: lines at 0, 64, then re-touch 0, then 128 must evict 64.
	h := MustHierarchy(
		CacheConfig{Name: "L1", Size: 128, LineSize: 64, Assoc: 2},
		CacheConfig{Name: "L2", Size: 8192, LineSize: 64, Assoc: 2},
	)
	h.Load(0, 8)
	h.Load(64, 8)
	h.Load(0, 8)   // 0 is now MRU
	h.Load(128, 8) // evicts 64
	h.Load(0, 8)   // must still hit
	s := h.LevelStats(0)
	if s.ReadMisses != 3 {
		t.Fatalf("read misses = %d, want 3", s.ReadMisses)
	}
	h.Load(64, 8) // was evicted: miss
	if h.LevelStats(0).ReadMisses != 4 {
		t.Fatal("64 should have been the LRU victim")
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	// Direct-mapped: addresses 0 and Size collide; 2-way they coexist.
	dm := MustHierarchy(
		CacheConfig{Name: "C", Size: 1024, LineSize: 32, Assoc: 1},
		CacheConfig{Name: "M", Size: 65536, LineSize: 32, Assoc: 2},
	)
	for i := 0; i < 10; i++ {
		dm.Load(0, 8)
		dm.Load(1024, 8)
	}
	if m := dm.LevelStats(0).ReadMisses; m != 20 {
		t.Fatalf("direct-mapped ping-pong misses = %d, want 20", m)
	}
	sa := MustHierarchy(
		CacheConfig{Name: "C", Size: 1024, LineSize: 32, Assoc: 2},
		CacheConfig{Name: "M", Size: 65536, LineSize: 32, Assoc: 2},
	)
	for i := 0; i < 10; i++ {
		sa.Load(0, 8)
		sa.Load(1024, 8)
	}
	if m := sa.LevelStats(0).ReadMisses; m != 2 {
		t.Fatalf("2-way misses = %d, want 2", m)
	}
}

func TestChannelBytesShape(t *testing.T) {
	h := tiny()
	h.Load(0, 8)
	ch := h.ChannelBytes()
	if len(ch) != 3 {
		t.Fatalf("channels = %d, want 3", len(ch))
	}
	if ch[0] != 8 {
		t.Fatalf("register channel = %d, want 8", ch[0])
	}
	if ch[1] != 32 { // one L1 line filled
		t.Fatalf("L2-L1 channel = %d, want 32", ch[1])
	}
	if ch[2] != 64 { // one L2 line filled
		t.Fatalf("mem-L2 channel = %d, want 64", ch[2])
	}
	if h.MemoryBytes() != 64 {
		t.Fatalf("MemoryBytes = %d", h.MemoryBytes())
	}
}

func TestResetCountersKeepsContents(t *testing.T) {
	h := tiny()
	h.Load(0, 8)
	h.ResetCounters()
	if h.LevelStats(0).Reads != 0 || h.RegLoadBytes != 0 {
		t.Fatal("counters not reset")
	}
	h.Load(0, 8) // should hit: contents survived the reset
	if h.LevelStats(0).ReadMisses != 0 {
		t.Fatal("cache contents were lost by ResetCounters")
	}
}

func TestFlopCounter(t *testing.T) {
	h := tiny()
	h.AddFlops(5)
	h.AddFlops(2)
	if h.Flops != 7 {
		t.Fatalf("flops = %d", h.Flops)
	}
}

func TestStreamingTrafficMatchesFootprint(t *testing.T) {
	// Reading a large array once must move ~its size over every channel.
	h := MustHierarchy(
		CacheConfig{Name: "L1", Size: 1024, LineSize: 32, Assoc: 2},
		CacheConfig{Name: "L2", Size: 8192, LineSize: 64, Assoc: 2},
	)
	const bytes = 1 << 16
	for a := int64(0); a < bytes; a += 8 {
		h.Load(a, 8)
	}
	if got := h.LevelStats(1).BytesIn; got != bytes {
		t.Fatalf("memory reads %d bytes, want %d", got, bytes)
	}
	if got := h.LevelStats(0).BytesIn; got != bytes {
		t.Fatalf("L1 fills %d bytes, want %d", got, bytes)
	}
	if h.MemoryBytes() != bytes {
		t.Fatalf("MemoryBytes = %d", h.MemoryBytes())
	}
}

func TestReadModifyWriteStreamDoublesMemTraffic(t *testing.T) {
	// The Section 2.1 effect: a loop that reads and writes an array
	// moves twice the bytes of a read-only loop (read + writeback).
	run := func(write bool) int64 {
		h := MustHierarchy(
			CacheConfig{Name: "L1", Size: 1024, LineSize: 32, Assoc: 2},
			CacheConfig{Name: "L2", Size: 8192, LineSize: 64, Assoc: 2},
		)
		const bytes = 1 << 16
		for a := int64(0); a < bytes; a += 8 {
			h.Load(a, 8)
			if write {
				h.Store(a, 8)
			}
		}
		h.Flush()
		return h.MemoryBytes()
	}
	ro, rw := run(false), run(true)
	if rw != 2*ro {
		t.Fatalf("read-write traffic %d, read-only %d; want exactly 2x", rw, ro)
	}
}

// Property: for any access sequence, counter identities hold:
// hits+misses == accesses, BytesIn == fills*linesize, and memory traffic
// is line-aligned.
func TestCounterIdentitiesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := tiny()
		for i := 0; i < 500; i++ {
			addr := int64(rng.Intn(4096))
			if rng.Intn(2) == 0 {
				h.Load(addr, 8)
			} else {
				h.Store(addr, 8)
			}
		}
		h.Flush()
		for lvl := 0; lvl < h.Levels(); lvl++ {
			s := h.LevelStats(lvl)
			if s.Hits()+s.Misses() != s.Reads+s.Writes {
				return false
			}
			ls := int64(h.LevelConfig(lvl).LineSize)
			if s.BytesIn%ls != 0 || s.BytesOut%ls != 0 {
				return false
			}
			if s.BytesIn != s.Misses()*ls { // write-allocate: every miss fills
				return false
			}
		}
		// All dirty data flushed: mem writes equal L2 writebacks.
		if h.MemWrites != h.LevelStats(1).Writebacks {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: traffic at lower levels never exceeds traffic at upper
// levels for streaming reads (inclusive hierarchy filtering).
func TestFilteringProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := tiny()
		for i := 0; i < 300; i++ {
			h.Load(int64(rng.Intn(2048)), 8)
		}
		// L2 fills cannot exceed L1 fills scaled by line ratio... the
		// robust invariant: L2 read accesses == L1 read misses.
		return h.LevelStats(1).Reads == h.LevelStats(0).ReadMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestStridesMatchesPerAccess: Strides makes exactly the accesses of
// the LoadSite and StoreSite calls it stands for, iteration by
// iteration, on write-back and on write-through, no-write-allocate
// levels, with accesses that span lines, steps of either sign and
// profiling on.
func TestStridesMatchesPerAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	builds := []func() *Hierarchy{tiny, func() *Hierarchy {
		return MustHierarchy(
			CacheConfig{Name: "L1", Size: 96 * 3, LineSize: 32, Assoc: 3, Policy: WriteThrough, NoWriteAllocate: true},
			CacheConfig{Name: "L2", Size: 64 * 2 * 5, LineSize: 64, Assoc: 2},
		)
	}}
	for round := 0; round < 200; round++ {
		acc := make([]Stride, 1+rng.Intn(4))
		for i := range acc {
			acc[i] = Stride{Addr: 4096 + rng.Int63n(4096), Step: rng.Int63n(129) - 64,
				Size: []int{1, 4, 8, 12, 40}[rng.Intn(5)], Write: rng.Intn(3) == 0, Site: uint32(1 + rng.Intn(5))}
		}
		n := 1 + rng.Intn(50)
		build := builds[round%len(builds)]
		hs, hp := build(), build()
		hs.EnableProfiling()
		hp.EnableProfiling()
		hs.Strides(acc, n)
		for it := int64(0); it < int64(n); it++ {
			for _, a := range acc {
				if a.Write {
					hp.StoreSite(a.Addr+it*a.Step, a.Size, a.Site)
				} else {
					hp.LoadSite(a.Addr+it*a.Step, a.Size, a.Site)
				}
			}
		}
		hs.Flush()
		hp.Flush()
		if hs.String() != hp.String() {
			t.Fatalf("round %d: Strides\n%s\nper access\n%s", round, hs, hp)
		}
		for lvl := 0; lvl < hs.Levels(); lvl++ {
			if !reflect.DeepEqual(hs.Profile().SiteStats(lvl), hp.Profile().SiteStats(lvl)) {
				t.Fatalf("round %d: level %d per-site stats differ", round, lvl)
			}
		}
		if !reflect.DeepEqual(hs.Profile().RegBytes(), hp.Profile().RegBytes()) {
			t.Fatalf("round %d: per-site register bytes differ", round)
		}
	}
}
