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
	"math/bits"
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

// add adds o's counters to s.
func (s *Stats) add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadMisses += o.ReadMisses
	s.WriteMisses += o.WriteMisses
	s.Writebacks += o.Writebacks
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
}

// geometry maps byte addresses to line tags and tags to sets. The
// hierarchy, the reuse-distance recorder and the trace replay share it,
// so all three agree on where a line lives.
type geometry struct {
	shift uint  // log2 of the line size
	nsets int64 // sets per cache
	mask  int64 // nsets-1 when nsets is a power of two, else -1
}

func newGeometry(cfg CacheConfig) geometry {
	nsets := int64(cfg.Size / cfg.LineSize / cfg.Assoc)
	g := geometry{shift: uint(bits.TrailingZeros(uint(cfg.LineSize))), nsets: nsets, mask: -1}
	if nsets&(nsets-1) == 0 {
		g.mask = nsets - 1
	}
	return g
}

// setIndex returns the set of a line tag: a mask for a power-of-two set
// count (every registered machine), the modulo otherwise.
func (g geometry) setIndex(tag int64) int64 {
	if g.mask >= 0 {
		return tag & g.mask
	}
	return tag % g.nsets
}

// lineState is the part of a line the lookup does not read.
type lineState struct {
	// site is the attribution site that last dirtied the line; its
	// eventual writeback is charged to that site (owner-pays), which is
	// what makes per-site byte counts sum exactly to the level totals.
	site  uint32
	dirty bool
}

// memoSize is the number of entries in each level's line memo.
const memoSize = 16

// memoEntry says that line idx of its level is valid and holds tag. A
// tag of -1 marks an empty entry.
type memoEntry struct {
	tag int64
	idx int
}

// level is one cache. Its lines are stored as parallel flat slices,
// every set back to back: line j of set s has index s*assoc+j. A lookup
// reads only tags, and the victim choice only used.
type level struct {
	geometry
	cfg CacheConfig
	ls  int64
	// tags holds each line's tag; -1 marks a line never filled (the
	// simulated addresses, and so their tags, are non-negative).
	tags []int64
	// used holds each line's LRU stamp, the level's clock at its last
	// access. A line never filled has stamp 0 and every filled line a
	// distinct positive one, so the least stamp of a set picks its first
	// empty way if there is one and its least recently used line if not.
	used  []int64
	state []lineState
	// memo remembers where recently found lines sit, keyed on the low
	// bits of the tag. It is exact: a tag is unique within its set, an
	// entry is written only for a filled line holding its tag, and the
	// entry is cleared when that line is evicted.
	memo  [memoSize]memoEntry
	clock int64
	stats Stats
}

func newLevel(cfg CacheConfig) level {
	g := newGeometry(cfg)
	n := g.nsets * int64(cfg.Assoc)
	l := level{
		geometry: g,
		cfg:      cfg,
		ls:       int64(cfg.LineSize),
		tags:     make([]int64, n),
		used:     make([]int64, n),
		state:    make([]lineState, n),
	}
	for i := range l.tags {
		l.tags[i] = -1
	}
	l.clearMemo()
	return l
}

// clearMemo empties the level's line memo.
func (l *level) clearMemo() {
	for i := range l.memo {
		l.memo[i].tag = -1
	}
}

// find returns the index of the line holding tag, or -1 on a miss. A
// line the set scan finds replaces the memo entry.
func (l *level) find(tag int64) int {
	e := &l.memo[tag&(memoSize-1)]
	if e.tag == tag {
		return e.idx
	}
	base := int(l.setIndex(tag)) * l.cfg.Assoc
	for i, t := range l.tags[base : base+l.cfg.Assoc] {
		if t == tag {
			e.tag, e.idx = tag, base+i
			return base + i
		}
	}
	return -1
}

// memoLine reports whether the access [addr, addr+size) lies in one
// line the memo knows, and if so that line's index and tag.
func (l *level) memoLine(addr int64, size int) (int, int64, bool) {
	tag := addr >> l.shift
	e := &l.memo[tag&(memoSize-1)]
	return e.idx, tag, e.tag == tag && (addr+int64(size)-1)>>l.shift == tag
}

// Hierarchy is a stack of cache levels over an infinite memory.
// Level 0 is closest to the processor.
//
// A hierarchy that has switched to set partitions (partition.go) logs
// its accesses and simulates them later, so its exported counter
// fields are current only after Flush, Sync or any counter method
// (LevelStats, ChannelBytes, MemoryBytes, ResetCounters, String).
type Hierarchy struct {
	levels []level
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

	// Set partitions (partition.go): strided counts the accesses
	// Strides has taken, and at switchAt the hierarchy tries to switch
	// to at most maxParts partitions (0: one per CPU). Once it has,
	// switchAt is 0, parts are the partitions and log holds the
	// accesses they have yet to simulate; a hierarchy that cannot
	// switch, or has left partitions, has switchAt at MaxInt64.
	strided, switchAt int64
	maxParts          int
	parts             []*partition
	log               *accessLog
}

// NewHierarchy builds a hierarchy from processor-side to memory-side
// configs. At least one level is required.
func NewHierarchy(cfgs ...CacheConfig) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: hierarchy needs at least one cache level")
	}
	h := &Hierarchy{switchAt: partitionAfter}
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
func (h *Hierarchy) LevelStats(i int) Stats {
	h.Sync()
	return h.levels[i].stats
}

// LevelConfig returns the configuration of level i.
func (h *Hierarchy) LevelConfig(i int) CacheConfig { return h.levels[i].cfg }

// configs returns every level's configuration, processor side first.
func (h *Hierarchy) configs() []CacheConfig {
	out := make([]CacheConfig, len(h.levels))
	for i := range h.levels {
		out[i] = h.levels[i].cfg
	}
	return out
}

// Load simulates a processor load of size bytes at addr.
func (h *Hierarchy) Load(addr int64, size int) {
	h.LoadSite(addr, size, 0)
}

// Store simulates a processor store of size bytes at addr.
func (h *Hierarchy) Store(addr int64, size int) {
	h.StoreSite(addr, size, 0)
}

// LoadSite is Load tagged with the attribution site causing the access.
//
// An access that lies in one L1 line the memo knows is a hit found
// without a set lookup; any other is split into lines. LoadSite and
// StoreSite each make that test themselves instead of sharing a helper:
// the engine calls them once per simulated access, and the extra call
// cost about 5% of BenchmarkMeasureSweep.
func (h *Hierarchy) LoadSite(addr int64, size int, site uint32) {
	h.RegLoadBytes += int64(size)
	if h.prof != nil || h.mrc != nil {
		h.observe(addr, size, site)
	}
	if h.parts != nil {
		h.record([]Stride{{Addr: addr, Size: size, Site: site}}, 1)
		return
	}
	l := &h.levels[0]
	if i, tag, ok := l.memoLine(addr, size); ok {
		h.hit(l, 0, i, tag, false, site)
		return
	}
	h.forEachLine(0, addr, size, false, site)
}

// StoreSite is Store tagged with the attribution site causing the access.
func (h *Hierarchy) StoreSite(addr int64, size int, site uint32) {
	h.RegStoreBytes += int64(size)
	if h.prof != nil || h.mrc != nil {
		h.observe(addr, size, site)
	}
	if h.parts != nil {
		h.record([]Stride{{Addr: addr, Size: size, Write: true, Site: site}}, 1)
		return
	}
	l := &h.levels[0]
	if i, tag, ok := l.memoLine(addr, size); ok {
		h.hit(l, 0, i, tag, true, site)
		return
	}
	h.forEachLine(0, addr, size, true, site)
}

// Stride is one access of a loop body whose address moves by a fixed
// step: iteration t accesses Size bytes at Addr + t*Step.
type Stride struct {
	Addr  int64
	Step  int64
	Size  int
	Write bool
	Site  uint32
}

// Strides simulates n iterations of a loop body whose accesses are acc:
// iteration by iteration, and within one in the order of acc, it makes
// exactly the accesses the matching LoadSite and StoreSite calls make,
// with the same profile attribution. It counts no flops: the caller
// adds them with AddFlops. With a reuse-distance recorder on, the
// flops then fall in a later epoch than per-access calls would put
// them in, so a caller that wants exact epochs keeps to LoadSite and
// StoreSite.
//
// Once a plain hierarchy (no profile, no recorder) has taken
// partitionAfter accesses through Strides, it switches to set
// partitions if it can, and from then on Strides, LoadSite and
// StoreSite log their accesses for the partitions to simulate.
func (h *Hierarchy) Strides(acc []Stride, n int) {
	for i := range acc {
		if acc[i].Write {
			h.RegStoreBytes += int64(n) * int64(acc[i].Size)
		} else {
			h.RegLoadBytes += int64(n) * int64(acc[i].Size)
		}
	}
	if h.strided += int64(n) * int64(len(acc)); h.strided >= h.switchAt && h.logged(acc, int64(n)) {
		return
	}
	l := &h.levels[0]
	for t := range int64(n) {
		for i := range acc {
			a := &acc[i]
			addr := a.Addr + t*a.Step
			if h.prof != nil || h.mrc != nil {
				h.observe(addr, a.Size, a.Site)
			}
			if li, tag, ok := l.memoLine(addr, a.Size); ok {
				h.hit(l, 0, li, tag, a.Write, a.Site)
				continue
			}
			h.forEachLine(0, addr, a.Size, a.Write, a.Site)
		}
	}
}

// observe passes one processor access to the profile's register bytes
// and to the reuse-distance timeline, whichever is on.
func (h *Hierarchy) observe(addr int64, size int, site uint32) {
	if h.prof != nil {
		h.prof.addReg(site, int64(size))
	}
	if h.mrc != nil {
		h.mrc.epochs.tick(addr, size)
	}
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
		h.memory(write, site)
		return
	}
	l := &h.levels[lvl]
	last := (addr + int64(size) - 1) >> l.shift
	for tag := addr >> l.shift; tag <= last; tag++ {
		if i := l.find(tag); i >= 0 {
			h.hit(l, lvl, i, tag, write, site)
		} else {
			h.miss(l, lvl, tag, write, site)
		}
	}
}

// memory is an access that reached the infinite memory: it always hits.
func (h *Hierarchy) memory(write bool, site uint32) {
	if write {
		h.MemWrites++
	} else {
		h.MemReads++
	}
	if h.mrc != nil {
		h.mrc.epochs.mem(site)
	}
}

// count advances the level's LRU clock and counts one line-granular
// access, hit or miss.
func (l *level) count(write bool) {
	l.clock++
	if write {
		l.stats.Writes++
	} else {
		l.stats.Reads++
	}
}

// observeLine passes one line-granular access at level lvl to the
// reuse-distance recorder and counts it in the site's bucket, which it
// returns (nil when profiling is off). Hits and misses call it when the
// profile or the recorder is on.
func (h *Hierarchy) observeLine(lvl int, tag int64, write bool, site uint32) *Stats {
	if h.mrc != nil {
		h.mrc.record(lvl, tag, write, site)
	}
	if h.prof == nil {
		return nil
	}
	ps := h.prof.siteStats(lvl, site)
	if write {
		ps.Writes++
	} else {
		ps.Reads++
	}
	return ps
}

// hit completes a line-granular access whose line sits at index i of
// level lvl: it counts the access, refreshes the line's LRU stamp and,
// for a store, marks the line dirty (write-back) or propagates the
// store down (write-through).
//
// Attribution policy (owner-pays), here and in miss: fills,
// write-through propagation and no-write-allocate forwards are charged
// to the accessing site; writebacks — eviction and Flush alike — are
// charged to the site that last dirtied the line. Every byte the level
// counters see is charged to exactly one site, so per-site sums equal
// the totals at each level.
func (h *Hierarchy) hit(l *level, lvl, i int, tag int64, write bool, site uint32) {
	l.count(write)
	l.used[i] = l.clock
	var ps *Stats
	if h.prof != nil || h.mrc != nil {
		ps = h.observeLine(lvl, tag, write, site)
	}
	if !write {
		return
	}
	if l.cfg.Policy == WriteThrough {
		// Propagate the store downward at this level's line size.
		l.stats.BytesOut += l.ls
		if ps != nil {
			ps.BytesOut += l.ls
		}
		h.forEachLine(lvl+1, tag<<l.shift, int(l.ls), true, site)
		return
	}
	l.state[i] = lineState{site: site, dirty: true} // last dirtier owns the writeback
}

// miss completes a line-granular access to a tag level lvl does not
// hold, recursing to lower levels for the fill, write-throughs and the
// victim's writeback.
func (h *Hierarchy) miss(l *level, lvl int, tag int64, write bool, site uint32) {
	l.count(write)
	var ps *Stats
	if h.prof != nil || h.mrc != nil {
		ps = h.observeLine(lvl, tag, write, site)
	}
	ls := l.ls
	lineAddr := tag << l.shift
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

	// Choose a victim: the first empty way, else the least recently used.
	base := int(l.setIndex(tag)) * l.cfg.Assoc
	victim, oldest := base, l.used[base]
	for i, u := range l.used[base+1 : base+l.cfg.Assoc] {
		if u < oldest {
			victim, oldest = base+1+i, u
		}
	}
	if old := l.tags[victim]; old >= 0 {
		if e := &l.memo[old&(memoSize-1)]; e.tag == old {
			e.tag = -1
		}
		if v := l.state[victim]; v.dirty {
			// Writeback the victim line to the next level, charged to
			// the site that dirtied it.
			l.stats.Writebacks++
			l.stats.BytesOut += ls
			if h.prof != nil {
				vs := h.prof.siteStats(lvl, v.site)
				vs.Writebacks++
				vs.BytesOut += ls
				// siteStats may have grown the level's bucket slice;
				// re-resolve the accessor's bucket before touching it
				// again.
				ps = h.prof.siteStats(lvl, site)
			}
			h.forEachLine(lvl+1, old<<l.shift, int(ls), true, v.site)
		}
	}

	// Fetch the line from the next level (write-allocate fetches too:
	// the processor writes only part of the line, so the rest must be
	// read from below).
	l.stats.BytesIn += ls
	if ps != nil {
		ps.BytesIn += ls
	}
	h.forEachLine(lvl+1, lineAddr, int(ls), false, site)

	l.tags[victim], l.used[victim] = tag, l.clock
	l.state[victim] = lineState{site: site}
	l.memo[tag&(memoSize-1)] = memoEntry{tag: tag, idx: victim}
	if write {
		if l.cfg.Policy == WriteThrough {
			l.stats.BytesOut += ls
			if ps != nil {
				ps.BytesOut += ls
			}
			h.forEachLine(lvl+1, lineAddr, int(ls), true, site)
		} else {
			l.state[victim].dirty = true
		}
	}
}

// Flush writes back every dirty line in every level, as at program end.
// The paper's writeback accounting includes these final writebacks.
// Each writeback is charged to the site that last dirtied the line.
// A partitioned hierarchy has each partition simulate what is left in
// the log and then write back its own sets.
func (h *Hierarchy) Flush() {
	if h.parts != nil {
		h.drain(true)
		return
	}
	for lvl := range h.levels {
		l := &h.levels[lvl]
		for i := range l.state {
			if l.state[i].dirty {
				h.flushLine(lvl, i)
			}
		}
	}
	if h.mrc != nil {
		h.mrc.finalize()
	}
}

// flushLine writes back line i of level lvl, which is dirty.
func (h *Hierarchy) flushLine(lvl, i int) {
	l := &h.levels[lvl]
	st := &l.state[i]
	l.stats.Writebacks++
	l.stats.BytesOut += l.ls
	if h.prof != nil {
		os := h.prof.siteStats(lvl, st.site)
		os.Writebacks++
		os.BytesOut += l.ls
	}
	h.forEachLine(lvl+1, l.tags[i]<<l.shift, int(l.ls), true, st.site)
	st.dirty = false
}

// ResetCounters zeroes all counters without disturbing cache contents
// (for excluding warm-up phases from measurements). Per-site profiling
// counters, when enabled, are cleared too.
func (h *Hierarchy) ResetCounters() {
	h.Sync()
	for i := range h.levels {
		h.levels[i].stats = Stats{}
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
	h.Sync()
	out := make([]int64, len(h.levels)+1)
	out[0] = h.RegLoadBytes + h.RegStoreBytes
	for i := range h.levels {
		out[i+1] = h.levels[i].stats.Traffic()
	}
	return out
}

// MemoryBytes returns the bytes crossing the cache↔memory channel
// (reads plus writebacks), the quantity the paper calls "total memory
// transfer".
func (h *Hierarchy) MemoryBytes() int64 {
	h.Sync()
	return h.levels[len(h.levels)-1].stats.Traffic()
}

// String summarizes all counters.
func (h *Hierarchy) String() string {
	h.Sync()
	var b strings.Builder
	fmt.Fprintf(&b, "flops=%d regLoad=%dB regStore=%dB\n", h.Flops, h.RegLoadBytes, h.RegStoreBytes)
	for i := range h.levels {
		s := h.levels[i].stats
		fmt.Fprintf(&b, "%s: reads=%d writes=%d rmiss=%d wmiss=%d wb=%d in=%dB out=%dB\n",
			h.levels[i].cfg.Name, s.Reads, s.Writes, s.ReadMisses, s.WriteMisses, s.Writebacks, s.BytesIn, s.BytesOut)
	}
	fmt.Fprintf(&b, "mem: reads=%d writes=%d", h.MemReads, h.MemWrites)
	return b.String()
}
