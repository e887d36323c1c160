package sim

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func recordSeq(t *testing.T, cfg CacheConfig, addrs []int64, writes []bool) *Trace {
	t.Helper()
	r, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if writes != nil && writes[i] {
			r.StoreSite(a, 8, 0)
		} else {
			r.LoadSite(a, 8, 0)
		}
	}
	return r.Trace()
}

func cfg1(assocLines int) CacheConfig {
	// One set with assocLines ways of 32B lines.
	return CacheConfig{Name: "C", Size: 32 * assocLines, LineSize: 32, Assoc: assocLines}
}

func TestBeladyClassicSequence(t *testing.T) {
	// 2-way, one set; lines A=0, B=32, C=64.
	// Sequence: A B C A — LRU evicts A at C (miss on final A = 4 misses);
	// Belady evicts B (no future use) and hits the final A (3 misses).
	addrs := []int64{0, 32, 64, 0}
	tr := recordSeq(t, cfg1(2), addrs, nil)
	lru, err := ReplayLRU(tr)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := ReplayBelady(tr)
	if err != nil {
		t.Fatal(err)
	}
	if lru.Misses() != 4 {
		t.Fatalf("LRU misses = %d, want 4", lru.Misses())
	}
	if opt.Misses() != 3 {
		t.Fatalf("Belady misses = %d, want 3", opt.Misses())
	}
}

func TestBeladyWritebacks(t *testing.T) {
	// Dirty line evicted must write back; final flush writes the rest.
	addrs := []int64{0, 32, 64}
	writes := []bool{true, true, true}
	tr := recordSeq(t, cfg1(2), addrs, writes)
	opt, err := ReplayBelady(tr)
	if err != nil {
		t.Fatal(err)
	}
	// 3 dirty lines, capacity 2: one eviction writeback + two at flush.
	if opt.Writebacks != 3 {
		t.Fatalf("writebacks = %d, want 3", opt.Writebacks)
	}
	if opt.BytesOut != 3*32 || opt.BytesIn != 3*32 {
		t.Fatalf("bytes in/out = %d/%d", opt.BytesIn, opt.BytesOut)
	}
}

func TestRecorderSplitsLines(t *testing.T) {
	r, err := NewRecorder(cfg1(2))
	if err != nil {
		t.Fatal(err)
	}
	r.LoadSite(30, 8, 0) // spans lines 0 and 32
	if r.Trace().Len() != 2 {
		t.Fatalf("trace len = %d, want 2", r.Trace().Len())
	}
	r.AddFlops(3)
	if r.Flops != 3 {
		t.Fatal("flop counter wrong")
	}
	r.Flush() // must be a no-op
}

func TestReplayRejectsWriteThrough(t *testing.T) {
	c := cfg1(2)
	c.Policy = WriteThrough
	tr := &Trace{cfg: c}
	if _, err := ReplayBelady(tr); err == nil {
		t.Fatal("write-through replay should be rejected")
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	tr := recordSeq(t, cfg1(2), nil, nil)
	st, err := ReplayBelady(tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses() != 0 || st.Writebacks != 0 {
		t.Fatal("empty trace produced events")
	}
}

// Property: Belady never takes more misses than LRU on the same trace
// (optimality), and both agree with the online Hierarchy's LRU when the
// trace uses a single level.
func TestBeladyOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := CacheConfig{Name: "C", Size: 256, LineSize: 32, Assoc: 2}
		rec, err := NewRecorder(cfg)
		if err != nil {
			return false
		}
		online := MustHierarchy(cfg, CacheConfig{Name: "M", Size: 1 << 20, LineSize: 32, Assoc: 4})
		n := 50 + rng.Intn(300)
		for i := 0; i < n; i++ {
			addr := int64(rng.Intn(64)) * 32
			write := rng.Intn(3) == 0
			if write {
				rec.StoreSite(addr, 8, 0)
				online.Store(addr, 8)
			} else {
				rec.LoadSite(addr, 8, 0)
				online.Load(addr, 8)
			}
		}
		online.Flush()
		lru, err := ReplayLRU(rec.Trace())
		if err != nil {
			return false
		}
		opt, err := ReplayBelady(rec.Trace())
		if err != nil {
			return false
		}
		if opt.Misses() > lru.Misses() {
			return false // Belady must be optimal
		}
		// The trace LRU replay must match the online simulator exactly.
		os := online.LevelStats(0)
		return lru.Misses() == os.Misses() && lru.Writebacks == os.Writebacks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Belady's miss count is invariant under increasing
// associativity only in one direction — more ways never hurt.
func TestBeladyMonotoneInWaysProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var addrs []int64
		for i := 0; i < 200; i++ {
			addrs = append(addrs, int64(rng.Intn(32))*32)
		}
		miss := func(ways int) int64 {
			cfg := CacheConfig{Name: "C", Size: 32 * 4 * ways, LineSize: 32, Assoc: ways}
			rec, _ := NewRecorder(cfg)
			for _, a := range addrs {
				rec.LoadSite(a, 8, 0)
			}
			st, err := ReplayBelady(rec.Trace())
			if err != nil {
				return -1
			}
			return st.Misses()
		}
		m2, m4 := miss(2), miss(4)
		return m2 >= 0 && m4 >= 0 && m4 <= m2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayCtxCanceled(t *testing.T) {
	// A trace long enough to cross several poll points.
	r, err := NewRecorder(cfg1(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200_000; i++ {
		r.LoadSite(int64(i)*32, 8, 0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReplayBeladyCtx(ctx, r.Trace()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("belady replay err = %v, want ErrCanceled", err)
	}
	if _, err := ReplayLRUCtx(ctx, r.Trace()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("lru replay err = %v, want ErrCanceled", err)
	}
	// A live context replays normally.
	if _, err := ReplayBeladyCtx(context.Background(), r.Trace()); err != nil {
		t.Fatalf("live replay failed: %v", err)
	}
}
