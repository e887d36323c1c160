// Package sim implements a software memory-hierarchy simulator that
// stands in for the hardware performance counters of the paper's
// evaluation machines (SGI Origin2000 / MIPS R10000 and HP/Convex
// Exemplar / PA-8000).
//
// The simulator models a hierarchy of set-associative LRU caches with
// write-back or write-through policy and optional write-allocate, and
// counts every event the paper's methodology needs: register transfers,
// per-level hits, misses and writebacks, and the bytes crossing every
// channel of the hierarchy. Program balance (bytes per flop per level)
// is computed from exactly these counts.
//
// Addresses are byte addresses in a flat simulated address space owned
// by the executor. The simulator carries no data — only tags and dirty
// bits — because bandwidth accounting needs locations, not values.
package sim

import (
	"fmt"
	"strings"
)

// WritePolicy selects how stores propagate toward memory.
type WritePolicy int

const (
	// WriteBack holds dirty lines in the cache and writes them to the
	// next level only on eviction (the policy of both R10K caches).
	WriteBack WritePolicy = iota
	// WriteThrough forwards every store to the next level immediately.
	WriteThrough
)

// String names the policy.
func (w WritePolicy) String() string {
	if w == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name     string // e.g. "L1", "L2"
	Size     int    // total bytes
	LineSize int    // bytes per line (power of two)
	Assoc    int    // ways; Size/LineSize/Assoc sets; use 1 for direct-mapped
	Policy   WritePolicy
	// NoWriteAllocate, when true, sends write misses directly to the
	// next level without fetching the line (typical for write-through
	// caches). The default (false) is write-allocate.
	NoWriteAllocate bool
}

// Validate checks geometric consistency.
func (c CacheConfig) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("sim: %s: non-positive geometry %+v", c.Name, c)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("sim: %s: line size %d not a power of two", c.Name, c.LineSize)
	}
	if c.Size%(c.LineSize*c.Assoc) != 0 {
		return fmt.Errorf("sim: %s: size %d not divisible by line*assoc (%d)", c.Name, c.Size, c.LineSize*c.Assoc)
	}
	return nil
}

// Stats holds the event counters of one cache level.
type Stats struct {
	Reads       int64 // read accesses (line granularity)
	Writes      int64 // write accesses
	ReadMisses  int64
	WriteMisses int64
	Writebacks  int64 // dirty evictions sent to the next level
	// BytesIn counts bytes brought into this level from the level below
	// (line fills). BytesOut counts bytes this level sent down
	// (writebacks and write-through stores). BytesIn+BytesOut is the
	// traffic on the channel between this level and the next.
	BytesIn  int64
	BytesOut int64
}

// Hits returns the total number of hits.
func (s Stats) Hits() int64 { return s.Reads + s.Writes - s.ReadMisses - s.WriteMisses }

// Misses returns the total number of misses.
func (s Stats) Misses() int64 { return s.ReadMisses + s.WriteMisses }

// Traffic returns total bytes crossing the channel below this level.
func (s Stats) Traffic() int64 { return s.BytesIn + s.BytesOut }

type line struct {
	tag  int64
	used int64 // LRU timestamp
	// site is the attribution site that last dirtied the line; its
	// eventual writeback is charged to that site (owner-pays), which is
	// what makes per-site byte counts sum exactly to the level totals.
	site  uint32
	valid bool
	dirty bool
}

type level struct {
	cfg   CacheConfig
	sets  [][]line
	nsets int64
	clock int64
	stats Stats
}

func newLevel(cfg CacheConfig) *level {
	n := cfg.Size / cfg.LineSize / cfg.Assoc
	sets := make([][]line, n)
	for i := range sets {
		sets[i] = make([]line, cfg.Assoc)
	}
	return &level{cfg: cfg, sets: sets, nsets: int64(n)}
}

// Hierarchy is a stack of cache levels over an infinite memory.
// Level 0 is closest to the processor.
type Hierarchy struct {
	levels []*level
	// Register-channel byte counters: every executor load/store moves
	// data between registers and the top cache level.
	RegLoadBytes  int64
	RegStoreBytes int64
	// Flops is incremented by the executor for every floating-point
	// arithmetic operation.
	Flops int64
	// MemReads/MemWrites count line transfers at the memory interface.
	MemReads, MemWrites int64
	// prof holds per-site attribution counters; nil (the default) keeps
	// profiling off the hot path except for one pointer test per access.
	prof *Profile
	// mrc holds the one-pass reuse-distance recorder; nil (the
	// default) keeps miss-ratio-curve recording off the hot path
	// except for one pointer test per access.
	mrc *MRCRecorder
}

// NewHierarchy builds a hierarchy from processor-side to memory-side
// configs. At least one level is required.
func NewHierarchy(cfgs ...CacheConfig) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: hierarchy needs at least one cache level")
	}
	h := &Hierarchy{}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		h.levels = append(h.levels, newLevel(c))
	}
	return h, nil
}

// MustHierarchy is NewHierarchy that panics on configuration errors.
func MustHierarchy(cfgs ...CacheConfig) *Hierarchy {
	h, err := NewHierarchy(cfgs...)
	if err != nil {
		panic(err)
	}
	return h
}

// Levels returns the number of cache levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// LevelStats returns a copy of the counters of level i (0 = closest to
// the processor).
func (h *Hierarchy) LevelStats(i int) Stats { return h.levels[i].stats }

// LevelConfig returns the configuration of level i.
func (h *Hierarchy) LevelConfig(i int) CacheConfig { return h.levels[i].cfg }

// Load simulates a processor load of size bytes at addr.
func (h *Hierarchy) Load(addr int64, size int) {
	h.LoadSite(addr, size, 0)
}

// Store simulates a processor store of size bytes at addr.
func (h *Hierarchy) Store(addr int64, size int) {
	h.StoreSite(addr, size, 0)
}

// LoadSite is Load tagged with the attribution site causing the access.
func (h *Hierarchy) LoadSite(addr int64, size int, site uint32) {
	h.RegLoadBytes += int64(size)
	if h.prof != nil {
		h.prof.addReg(site, int64(size))
	}
	if h.mrc != nil {
		h.mrc.epochs.tick(addr, size)
	}
	h.forEachLine(0, addr, size, false, site)
}

// StoreSite is Store tagged with the attribution site causing the access.
func (h *Hierarchy) StoreSite(addr int64, size int, site uint32) {
	h.RegStoreBytes += int64(size)
	if h.prof != nil {
		h.prof.addReg(site, int64(size))
	}
	if h.mrc != nil {
		h.mrc.epochs.tick(addr, size)
	}
	h.forEachLine(0, addr, size, true, site)
}

// AddFlops adds floating-point operations to the counter.
func (h *Hierarchy) AddFlops(n int64) {
	h.Flops += n
	if h.mrc != nil {
		h.mrc.epochs.addFlops(n)
	}
}

// forEachLine splits an access into line-granular accesses at the given
// level. Requests that reach past the last cache level go to memory,
// which accepts any granularity in one transfer.
func (h *Hierarchy) forEachLine(lvl int, addr int64, size int, write bool, site uint32) {
	if lvl == len(h.levels) {
		h.access(lvl, addr, write, site)
		return
	}
	ls := int64(h.levels[lvl].cfg.LineSize)
	first := addr &^ (ls - 1)
	last := (addr + int64(size) - 1) &^ (ls - 1)
	for a := first; a <= last; a += ls {
		h.access(lvl, a, write, site)
	}
}

// access performs one line-granular access at the given level,
// recursing to lower levels on misses, write-throughs and writebacks.
//
// Attribution policy (owner-pays): fills, write-through propagation and
// no-write-allocate forwards are charged to the accessing site;
// writebacks — eviction and Flush alike — are charged to the site that
// last dirtied the line. Every byte the level counters see is charged
// to exactly one site, so per-site sums equal the totals at each level.
func (h *Hierarchy) access(lvl int, addr int64, write bool, site uint32) {
	if lvl == len(h.levels) {
		// Memory: infinite, always hits.
		if write {
			h.MemWrites++
		} else {
			h.MemReads++
		}
		if h.mrc != nil {
			h.mrc.epochs.mem(site)
		}
		return
	}
	l := h.levels[lvl]
	ls := int64(l.cfg.LineSize)
	lineAddr := addr &^ (ls - 1)
	tag := lineAddr / ls
	set := l.sets[tag%l.nsets]
	l.clock++
	if h.mrc != nil {
		h.mrc.record(lvl, tag, write, site)
	}
	if write {
		l.stats.Writes++
	} else {
		l.stats.Reads++
	}
	var ps *Stats // per-site bucket; nil when profiling is off
	if h.prof != nil {
		ps = h.prof.siteStats(lvl, site)
		if write {
			ps.Writes++
		} else {
			ps.Reads++
		}
	}

	// Hit?
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = l.clock
			if write {
				if l.cfg.Policy == WriteThrough {
					// Propagate the store downward at this level's line size.
					l.stats.BytesOut += ls
					if ps != nil {
						ps.BytesOut += ls
					}
					h.forEachLine(lvl+1, lineAddr, int(ls), true, site)
				} else {
					set[i].dirty = true
					set[i].site = site // last dirtier owns the writeback
				}
			}
			return
		}
	}

	// Miss.
	if write {
		l.stats.WriteMisses++
		if ps != nil {
			ps.WriteMisses++
		}
		if l.cfg.NoWriteAllocate {
			// Forward the store without installing the line.
			l.stats.BytesOut += ls
			if ps != nil {
				ps.BytesOut += ls
			}
			h.forEachLine(lvl+1, lineAddr, int(ls), true, site)
			return
		}
	} else {
		l.stats.ReadMisses++
		if ps != nil {
			ps.ReadMisses++
		}
	}

	// Choose a victim (invalid first, else LRU).
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		// Writeback the victim line to the next level, charged to the
		// site that dirtied it.
		l.stats.Writebacks++
		l.stats.BytesOut += ls
		if h.prof != nil {
			vs := h.prof.siteStats(lvl, set[victim].site)
			vs.Writebacks++
			vs.BytesOut += ls
			// siteStats may have grown the level's bucket slice;
			// re-resolve the accessor's bucket before touching it again.
			ps = h.prof.siteStats(lvl, site)
		}
		h.forEachLine(lvl+1, set[victim].tag*ls, int(ls), true, set[victim].site)
	}

	// Fetch the line from the next level (write-allocate fetches too:
	// the processor writes only part of the line, so the rest must be
	// read from below).
	l.stats.BytesIn += ls
	if ps != nil {
		ps.BytesIn += ls
	}
	h.forEachLine(lvl+1, lineAddr, int(ls), false, site)

	set[victim] = line{tag: tag, valid: true, dirty: false, used: l.clock, site: site}
	if write {
		if l.cfg.Policy == WriteThrough {
			l.stats.BytesOut += ls
			if ps != nil {
				ps.BytesOut += ls
			}
			h.forEachLine(lvl+1, lineAddr, int(ls), true, site)
		} else {
			set[victim].dirty = true
		}
	}
}

// Flush writes back every dirty line in every level, as at program end.
// The paper's writeback accounting includes these final writebacks.
// Each writeback is charged to the site that last dirtied the line.
func (h *Hierarchy) Flush() {
	for lvl, l := range h.levels {
		ls := int64(l.cfg.LineSize)
		for si := range l.sets {
			for wi := range l.sets[si] {
				ln := &l.sets[si][wi]
				if ln.valid && ln.dirty {
					l.stats.Writebacks++
					l.stats.BytesOut += ls
					if h.prof != nil {
						os := h.prof.siteStats(lvl, ln.site)
						os.Writebacks++
						os.BytesOut += ls
					}
					h.forEachLine(lvl+1, ln.tag*ls, int(ls), true, ln.site)
					ln.dirty = false
				}
			}
		}
	}
	if h.mrc != nil {
		h.mrc.finalize()
	}
}

// ResetCounters zeroes all counters without disturbing cache contents
// (for excluding warm-up phases from measurements). Per-site profiling
// counters, when enabled, are cleared too.
func (h *Hierarchy) ResetCounters() {
	for _, l := range h.levels {
		l.stats = Stats{}
	}
	h.RegLoadBytes, h.RegStoreBytes = 0, 0
	h.Flops = 0
	h.MemReads, h.MemWrites = 0, 0
	if h.prof != nil {
		h.prof.reset()
	}
	if h.mrc != nil {
		// Reuse-distance state is stream-positional and cannot be
		// rewound; start a fresh recorder over the same geometry.
		h.mrc = nil
		_ = h.EnableMRC()
	}
}

// ChannelBytes returns the bytes moved on each channel of the
// hierarchy, processor-side first: index 0 is registers↔top cache,
// index i (1..Levels-1) is the channel between level i-1 and level i,
// and the last index is the channel between the last cache and memory.
func (h *Hierarchy) ChannelBytes() []int64 {
	out := make([]int64, len(h.levels)+1)
	out[0] = h.RegLoadBytes + h.RegStoreBytes
	for i, l := range h.levels {
		out[i+1] = l.stats.Traffic()
	}
	return out
}

// MemoryBytes returns the bytes crossing the cache↔memory channel
// (reads plus writebacks), the quantity the paper calls "total memory
// transfer".
func (h *Hierarchy) MemoryBytes() int64 {
	return h.levels[len(h.levels)-1].stats.Traffic()
}

// String summarizes all counters.
func (h *Hierarchy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flops=%d regLoad=%dB regStore=%dB\n", h.Flops, h.RegLoadBytes, h.RegStoreBytes)
	for _, l := range h.levels {
		s := l.stats
		fmt.Fprintf(&b, "%s: reads=%d writes=%d rmiss=%d wmiss=%d wb=%d in=%dB out=%dB\n",
			l.cfg.Name, s.Reads, s.Writes, s.ReadMisses, s.WriteMisses, s.Writebacks, s.BytesIn, s.BytesOut)
	}
	fmt.Fprintf(&b, "mem: reads=%d writes=%d", h.MemReads, h.MemWrites)
	return b.String()
}
