package sim

import (
	"runtime"
	"testing"
)

// TestPartitionCount checks how many partitions a hierarchy switches to:
// the largest power of two no larger than the CPU count that the bits
// common to every level's set index allow, and none when a level's set
// count is not a power of two, when the levels share no set-index bit,
// or when one CPU is all there is.
func TestPartitionCount(t *testing.T) {
	l1 := CacheConfig{Name: "L1", Size: 32 * 64 * 2, LineSize: 32, Assoc: 2}   // set bits 5–10
	l2 := CacheConfig{Name: "L2", Size: 128 * 32 * 4, LineSize: 128, Assoc: 4} // set bits 7–11
	for _, tc := range []struct {
		name string
		cfgs []CacheConfig
		k    int
		want int
	}{
		{"one level, 6 bits", []CacheConfig{l1}, 8, 8},
		{"one level, 6 bits, 3 CPUs", []CacheConfig{l1}, 3, 2},
		{"one level, one CPU", []CacheConfig{l1}, 1, 0},
		{"two levels, bits 7–10", []CacheConfig{l1, l2}, 64, 16},
		{"one set", []CacheConfig{{Name: "L1", Size: 256, LineSize: 32, Assoc: 8}}, 8, 0},
		{"3 sets", []CacheConfig{{Name: "L1", Size: 3 * 64, LineSize: 32, Assoc: 2}, l2}, 8, 0},
		{"no common bit", []CacheConfig{{Name: "L1", Size: 32 * 4, LineSize: 32, Assoc: 1}, l2}, 8, 0}, // bits 5–6 and 7–11
	} {
		h := MustHierarchy(tc.cfgs...)
		forcePartitions(h, tc.k)
		h.Strides([]Stride{{Addr: 0, Step: 8, Size: 8}}, 4)
		if got := len(h.parts); got != tc.want {
			t.Errorf("%s: %d partitions, want %d", tc.name, got, tc.want)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := MustHierarchy(l1, l2)
	h.switchAt = 0
	h.Strides([]Stride{{Addr: 0, Step: 8, Size: 8}}, 4)
	if h.parts != nil || h.log != nil {
		t.Errorf("GOMAXPROCS=1: %d partitions, want the sequential hierarchy", len(h.parts))
	}
}

// TestPartitionPanicReraised breaks one partition's line slices and
// requires the index panic it then raises in its walker, on the
// caller's goroutine (partition 0) or on its own, to reach the caller
// of Sync, as RunVectors re-raises a vector's panic, after every
// partition has finished, and with the log handed back.
func TestPartitionPanicReraised(t *testing.T) {
	for _, broken := range []int{0, 1} {
		h := MustHierarchy(CacheConfig{Name: "L1", Size: 32 * 64 * 2, LineSize: 32, Assoc: 2})
		forcePartitions(h, 2)
		h.Strides([]Stride{{Addr: 0, Step: 64, Size: 8}}, 64) // 4 KB: blocks of both partitions
		if len(h.parts) != 2 {
			t.Fatalf("%d partitions, want 2", len(h.parts))
		}
		h.parts[broken].levels[0].tags = nil
		func() {
			defer func() {
				if _, ok := recover().(runtime.Error); !ok {
					t.Fatalf("partition %d broken: Sync did not re-raise its runtime error", broken)
				}
			}()
			h.Sync()
		}()
		// The intact partition ran to the end: it missed on each of its
		// 32 lines, and its counters reached the parent.
		if got := h.levels[0].stats.ReadMisses; got != 32 {
			t.Errorf("partition %d broken: %d read misses merged, want the other partition's 32", broken, got)
		}
		if h.log != nil {
			t.Errorf("partition %d broken: the log was not handed back", broken)
		}
	}
}
