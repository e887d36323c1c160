package sim

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
)

// Set partitions (DESIGN §19 "Set partitions"). The sets of an LRU
// cache never interact, so a hierarchy whose levels all have a
// power-of-two set count splits into independent sub-hierarchies along
// any address bits that lie inside every level's set index: bits
// [b, b+kb) with b at least every level's line shift and b+kb at most
// every level's line shift plus log2 of its set count. Partition p owns
// the blocks of 2^b bytes whose bits [b, b+kb) equal p, and with them
// every line of every level those blocks map to: a line's fills,
// evictions, writebacks and flush stay inside its partition. Each
// partition is a view of the hierarchy that shares its levels' line
// slices (partitions write disjoint sets) and keeps its own memo, LRU
// clocks and counters. A set sees exactly the accesses, in exactly the
// order, the sequential simulation gives it, and its stamps all come
// from one clock, so every victim is the same; the counters, summed
// over the partitions, are the sequential ones.

const (
	// partitionAfter is the number of accesses a plain hierarchy
	// simulates inline through Strides before it switches to set
	// partitions. A run that small would pay more in logging and
	// goroutine start-up than the partitions save.
	partitionAfter = 1 << 17
	// logCap is the number of strides the access log holds before it
	// drains.
	logCap = 1 << 12
)

// accessLog holds the accesses a partitioned hierarchy has taken and
// not yet simulated: chunks over one flat slice of strides.
type accessLog struct {
	acc    []Stride
	chunks []logChunk
}

// logChunk is n iterations of the strides acc[off:end] of its log.
type logChunk struct {
	off, end int32
	n        int64
}

// freeLogs is a leaky free list of access logs, so a large measurement
// takes the log an earlier one used instead of allocating its own. A
// sync.Pool would not do: a sweep of measurements, each building a
// fresh hierarchy, collects garbage so often that the pool is mostly
// empty by the next large one. It keeps as many logs as four
// partitioned hierarchies running at once use, at most 768 KB.
var freeLogs = make(chan *accessLog, 4)

// getLog returns an empty access log.
func getLog() *accessLog {
	select {
	case lg := <-freeLogs:
		return lg
	default:
		return &accessLog{acc: make([]Stride, 0, logCap), chunks: make([]logChunk, 0, logCap)}
	}
}

// putLog returns an emptied log to the free list, or drops it if the
// list is full.
func putLog(lg *accessLog) {
	select {
	case freeLogs <- lg:
	default:
	}
}

// partition is one set partition: a view of its parent hierarchy whose
// levels share the parent's line slices, with its own memo, clocks,
// level counters and memory transfers.
type partition struct {
	_ [128]byte // see the padding at the end
	Hierarchy
	shift    uint  // log2 of the block size
	mask, id int64 // a block belongs to the partition when its index & mask == id
	// Per-stride scratch for strides: the iteration at which the
	// stride's ownership may next change, and its ownership until then.
	until []int64
	own   []ownership
	list  []int32 // the strides the partition owns, in order
	// panicked is what the partition's part of the last drain
	// panicked with, if anything.
	panicked any
	// Each partition's fields and levels are written by its own
	// goroutine alone. The padding at both ends, and a spare level
	// after its levels, keep them off the cache lines of whatever is
	// allocated next to them, such as the next partition's: that false
	// sharing cost about 5% of BenchmarkMeasureSweep.
	_ [128]byte
}

// ownership is how a partition owns one stride over a segment of
// iterations.
type ownership uint8

const (
	notOwned ownership = iota
	owned              // every access lies in one of the partition's blocks
	split              // the access spans blocks (one iteration)
)

// forcePartitions makes h switch to at most k set partitions at its
// first Strides call, whatever the CPU count. It is the test seam that
// runs the kernels, the engine parity tests and the fuzz targets
// partitioned; the bit-range limit still applies, and k = 1 keeps h
// sequential.
func forcePartitions(h *Hierarchy, k int) {
	h.maxParts, h.switchAt = k, 0
}

// logged is Strides past switchAt: it switches h to set partitions if
// it has not decided yet, and logs n iterations of acc if h is
// partitioned. It reports whether it logged them; if not, Strides
// simulates them inline.
func (h *Hierarchy) logged(acc []Stride, n int64) bool {
	if h.parts == nil {
		h.enterPartitions()
		if h.parts == nil {
			return false
		}
	}
	h.record(acc, n)
	return true
}

// enterPartitions switches h to set partitions if it is plain (no
// profile, no recorder) and its geometry and the CPU count allow more
// than one: the largest power of two no larger than the CPU count (or
// maxParts) and no larger than the common set-index bits allow. It
// decides once; a hierarchy that cannot switch stays sequential.
func (h *Hierarchy) enterPartitions() {
	h.switchAt = math.MaxInt64
	if h.prof != nil || h.mrc != nil {
		return
	}
	k := h.maxParts
	if k == 0 {
		k = runtime.GOMAXPROCS(0)
	}
	lo, hi := 0, 64
	for i := range h.levels {
		l := &h.levels[i]
		if l.mask < 0 {
			return // the set index is a modulo, not a bit range
		}
		lo = max(lo, int(l.shift))
		hi = min(hi, int(l.shift)+bits.TrailingZeros64(uint64(l.nsets)))
	}
	kb := min(bits.Len(uint(k))-1, hi-lo)
	if kb <= 0 {
		return
	}
	h.parts = make([]*partition, 1<<kb)
	for p := range h.parts {
		v := &partition{shift: uint(hi - kb), mask: 1<<kb - 1, id: int64(p)}
		v.levels = make([]level, len(h.levels), len(h.levels)+1)
		for i := range h.levels {
			// The clock carries on from the parent's, so every stamp a
			// partition writes is later than any written before.
			v.levels[i] = h.levels[i]
			v.levels[i].stats = Stats{}
			v.levels[i].clearMemo()
		}
		h.parts[p] = v
	}
	h.switchAt = 0
}

// unpartition returns a partitioned hierarchy to sequential simulation
// for good, as profiling and recording need: it drains the log, moves
// the level clocks past every partition's, and clears the memos the
// partitions may have left stale.
func (h *Hierarchy) unpartition() {
	if h.parts == nil {
		return
	}
	h.Sync()
	for i := range h.levels {
		l := &h.levels[i]
		for _, v := range h.parts {
			l.clock = max(l.clock, v.levels[i].clock)
		}
		l.clearMemo()
	}
	h.parts, h.switchAt = nil, math.MaxInt64
}

// record appends n iterations of acc to the log, draining it first if
// they would not fit. The strides are copied: the engine advances its
// own after the call. Consecutive single iterations share one chunk.
func (h *Hierarchy) record(acc []Stride, n int64) {
	lg := h.log
	if lg == nil {
		lg = getLog()
		h.log = lg
	} else if len(lg.acc)+len(acc) > logCap {
		h.drain(false)
		lg = getLog()
		h.log = lg
	}
	off := int32(len(lg.acc))
	lg.acc = append(lg.acc, acc...)
	if last := len(lg.chunks) - 1; n == 1 && last >= 0 && lg.chunks[last].n == 1 {
		lg.chunks[last].end = int32(len(lg.acc))
		return
	}
	lg.chunks = append(lg.chunks, logChunk{off: off, end: int32(len(lg.acc)), n: n})
}

// Sync simulates every access a partitioned hierarchy has logged, so
// its counters are current. On a hierarchy that has not switched it
// does nothing. Flush and the counter methods sync by themselves; a
// caller that reads the counter fields after a run that ended without
// Flush calls it.
func (h *Hierarchy) Sync() {
	if h.log != nil {
		h.drain(false)
	}
}

// drain has every partition simulate the log, if there is one, and
// then write back its own dirty lines if flush is set: one parallel
// step for both, as Flush comes right after the last accesses. The
// caller's goroutine takes partition 0 and one goroutine each the
// rest. Once all are done, drain hands the log back to the free list,
// adds the partitions' counters into h and re-raises on the caller
// any panic a partition raised.
func (h *Hierarchy) drain(flush bool) {
	lg := h.log
	h.log = nil
	var wg sync.WaitGroup
	for _, v := range h.parts[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.run(lg, flush)
		}()
	}
	h.parts[0].run(lg, flush)
	wg.Wait()
	if lg != nil {
		lg.acc, lg.chunks = lg.acc[:0], lg.chunks[:0]
		putLog(lg)
	}
	for _, v := range h.parts {
		for i := range h.levels {
			h.levels[i].stats.add(v.levels[i].stats)
			v.levels[i].stats = Stats{}
		}
		h.MemReads += v.MemReads
		h.MemWrites += v.MemWrites
		v.MemReads, v.MemWrites = 0, 0
	}
	for _, v := range h.parts {
		if p := v.panicked; p != nil {
			v.panicked = nil
			panic(p)
		}
	}
}

// run is one partition's part of a drain, keeping what it panics with.
func (v *partition) run(lg *accessLog, flush bool) {
	defer func() { v.panicked = recover() }()
	if lg != nil {
		v.walk(lg)
	}
	if flush {
		v.flush()
	}
}

// walk simulates the part of the log that lies in v's blocks.
func (v *partition) walk(lg *accessLog) {
	for _, c := range lg.chunks {
		acc := lg.acc[c.off:c.end]
		if c.n == 1 {
			for i := range acc {
				v.access(&acc[i], acc[i].Addr)
			}
			continue
		}
		v.strides(acc, c.n)
	}
}

// strides simulates the part of n iterations of acc that lies in v's
// blocks. It cuts the iterations into segments in which no stride
// leaves its block, so ownership is decided once per stride and
// segment, not per access, and a segment v owns none of is skipped
// whole.
func (v *partition) strides(acc []Stride, n int64) {
	if len(acc) > len(v.until) {
		v.until, v.own, v.list = make([]int64, len(acc)), make([]ownership, len(acc)), make([]int32, 0, len(acc))
	}
	until, own := v.until[:len(acc)], v.own[:len(acc)]
	clear(until)
	l := &v.levels[0]
	for t := int64(0); t < n; {
		end, list := n, v.list[:0]
		for i := range acc {
			if until[i] <= t {
				until[i], own[i] = v.segment(&acc[i], t, n)
			}
			end = min(end, until[i])
			if own[i] != notOwned {
				list = append(list, int32(i))
			}
		}
		for ; t < end; t++ {
			for _, i := range list {
				a := &acc[i]
				addr := a.Addr + t*a.Step
				if own[i] == split {
					v.access(a, addr)
					continue
				}
				if li, tag, ok := l.memoLine(addr, a.Size); ok {
					v.hit(l, 0, li, tag, a.Write, a.Site)
					continue
				}
				v.forEachLine(0, addr, a.Size, a.Write, a.Site)
			}
		}
	}
}

// segment returns how v owns stride a from iteration t on, and the
// iteration before n at which that may change: owned or not for as
// long as the access stays inside one block, split for one iteration
// when it spans blocks (or has no positive size).
func (v *partition) segment(a *Stride, t, n int64) (int64, ownership) {
	addr := a.Addr + t*a.Step
	first := addr >> v.shift
	if a.Size < 1 || (addr+int64(a.Size)-1)>>v.shift != first {
		return t + 1, split
	}
	own := notOwned
	if first&v.mask == v.id {
		own = owned
	}
	// room is how far the access can move in its direction and stay in
	// the block.
	var room, step int64
	switch {
	case a.Step > 0:
		room, step = (first+1)<<v.shift-addr-int64(a.Size), a.Step
	case a.Step < 0:
		room, step = addr-first<<v.shift, -a.Step
	default:
		return n, own
	}
	if room < step {
		return t + 1, own
	}
	return min(n, t+1+room/step), own
}

// access simulates the part of one access at addr that lies in v's
// blocks. The blocks are whole lines of every level, so the part in a
// block is the accesses the sequential split into lines makes there.
func (v *partition) access(a *Stride, addr int64) {
	end := addr + int64(a.Size)
	for blk := addr >> v.shift; blk <= (end-1)>>v.shift; blk++ {
		if blk&v.mask == v.id {
			lo, hi := max(addr, blk<<v.shift), min(end, (blk+1)<<v.shift)
			v.forEachLine(0, lo, int(hi-lo), a.Write, a.Site)
		}
	}
}

// flush writes back the dirty lines of v's sets, level by level and
// each level in index order: the order the sequential Flush reaches
// them in.
func (v *partition) flush() {
	for lvl := range v.levels {
		l := &v.levels[lvl]
		run := int64(1) << (v.shift - l.shift) // consecutive sets per block
		assoc := int64(l.cfg.Assoc)
		for s := v.id * run; s < l.nsets; s += (v.mask + 1) * run {
			for i := s * assoc; i < (s+run)*assoc; i++ {
				if l.state[i].dirty {
					v.flushLine(lvl, int(i))
				}
			}
		}
	}
}
