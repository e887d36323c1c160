// Miss-ratio curves by one-pass reuse-distance (stack-distance)
// analysis, after Mattson et al. (IBM Systems Journal, 1970).
//
// The fixed-capacity simulator in sim.go answers "how many misses at
// THIS cache size"; the recorder here answers the same question for
// every size at once. It rides the same access stream: each cache
// level's line-granular accesses (exactly the calls that bump that
// level's Stats counters) also update a per-set order-statistic
// structure, and the per-set stack distance — the number of distinct
// other lines of the same set touched since the line's previous
// access — decides hit or miss for every associativity simultaneously.
// A set-associative LRU cache with S sets and A ways hits if and only
// if the per-set distance is below A, so a histogram of distances
// yields the exact miss count for capacity A·S·line for all A ≥ 1
// (LRU's inclusion property, per set). Holding the set count and line
// size at the machine's configured geometry keeps the curve exact at
// the machine's own capacity: evaluating at A = cfg.Assoc must
// reproduce the fixed simulation's counters bit for bit, which is the
// correctness oracle the tests enforce.
//
// Because level i+1 observes the miss-and-writeback stream that the
// fixed-geometry level i actually produced, per-level curves compose
// through the hierarchy: each level's curve is conditioned on the
// levels above it staying at their configured geometry.
//
// Writeback counts sweep capacity too. A line's residency period at
// associativity A ends at the first reuse gap with distance ≥ A, and
// the period's eviction writes back iff a write occurred in it. For a
// reuse gap of distance D, with M the largest gap since the line's
// last write, the eviction-writeback happens exactly for A in (M, D]
// — a range update on a difference array over the associativity axis.
// Program-end Flush writebacks are the open range (M, ∞).
//
// The recorder also buckets the processor access stream into epochs
// (per-epoch per-site traffic, flops, memory bytes, and exact
// distinct-line working sets) to expose program phases that aggregate
// totals hide.
package sim

import (
	"fmt"
	"sort"
)

// fenwick is a 1-indexed binary indexed tree over per-set time slots;
// a set bit marks the most recent access slot of one live line.
type fenwick []int64

func (f fenwick) add(i, v int64) {
	for ; i < int64(len(f)); i += i & (-i) {
		f[i] += v
	}
}

func (f fenwick) sum(i int64) int64 {
	var s int64
	for ; i > 0; i -= i & (-i) {
		s += f[i]
	}
	return s
}

// mrcLine is the per-line state of the reuse-distance analysis.
type mrcLine struct {
	slot int64 // current Fenwick slot (per-set recency timestamp)
	// Dirty-interval tracking for capacity-swept writebacks: wOwner
	// holds the site of the last write, wMax the largest reuse gap
	// since that write. The line is dirty at associativity A iff
	// hasW and A > wMax.
	wMax   int64
	wOwner uint32
	hasW   bool
}

// mrcSet is the order-statistic structure of one cache set: a Fenwick
// tree over per-set access time with periodic compaction, giving
// O(log live-lines) stack distances.
type mrcSet struct {
	fen   fenwick
	lines map[int64]*mrcLine
	clock int64 // last assigned slot
}

func newMrcSet() *mrcSet {
	return &mrcSet{fen: make(fenwick, 64), lines: make(map[int64]*mrcLine)}
}

// touch records an access to tag and returns its per-set stack
// distance (-1 for a cold first touch) and the line's state.
func (s *mrcSet) touch(tag int64) (int64, *mrcLine) {
	d := int64(-1)
	ln := s.lines[tag]
	if ln != nil {
		// Lines more recent than ln = live lines minus those at or
		// before ln's slot.
		d = int64(len(s.lines)) - s.fen.sum(ln.slot)
		s.fen.add(ln.slot, -1)
		ln.slot = 0
	}
	if s.clock+1 >= int64(len(s.fen)) {
		s.compact()
	}
	s.clock++
	if ln == nil {
		ln = &mrcLine{}
		s.lines[tag] = ln
	}
	ln.slot = s.clock
	s.fen.add(ln.slot, 1)
	return d, ln
}

// compact reassigns slots 1..live in recency order when the time axis
// fills, keeping the Fenwick proportional to live lines. Amortized
// O(log) per access: at least half the capacity is consumed between
// rebuilds.
func (s *mrcSet) compact() {
	all := make([]*mrcLine, 0, len(s.lines))
	for _, ln := range s.lines {
		if ln.slot > 0 {
			all = append(all, ln)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].slot < all[j].slot })
	capa := int64(64)
	for capa < 2*int64(len(all))+2 {
		capa *= 2
	}
	s.fen = make(fenwick, capa)
	for i, ln := range all {
		ln.slot = int64(i + 1)
		s.fen.add(ln.slot, 1)
	}
	s.clock = int64(len(all))
}

// mrcHist accumulates the capacity-swept counters of one site (or of
// a whole level): reuse-distance histograms split by read/write, cold
// first-touches, and the writeback difference array over the
// associativity axis.
type mrcHist struct {
	reads, writes int64
	coldR, coldW  int64
	distR, distW  []int64
	// wbDiff[a] added for thresholds ≥ a: writebacks(A) = Σ_{a≤A} wbDiff[a].
	// Closed eviction ranges (M, D] add +1 at M+1 and -1 at D+1; open
	// Flush ranges (M, ∞) add only the +1.
	wbDiff []int64
}

func bump(s *[]int64, i int64) {
	grow(s, i)
	(*s)[i]++
}

func (h *mrcHist) record(d int64, write bool) {
	if write {
		h.writes++
		if d < 0 {
			h.coldW++
		} else {
			bump(&h.distW, d)
		}
	} else {
		h.reads++
		if d < 0 {
			h.coldR++
		} else {
			bump(&h.distR, d)
		}
	}
}

func grow(s *[]int64, i int64) {
	for int64(len(*s)) <= i {
		*s = append(*s, 0)
	}
}

// addWbRange adds one writeback for associativity thresholds in
// [lo, hi); hi < 0 leaves the range open (program-end flush).
func (h *mrcHist) addWbRange(lo, hi int64) {
	grow(&h.wbDiff, lo)
	h.wbDiff[lo]++
	if hi >= 0 {
		grow(&h.wbDiff, hi)
		h.wbDiff[hi]--
	}
}

// maxDist returns the largest recorded reuse distance plus one — the
// associativity at which only compulsory misses remain.
func (h *mrcHist) maxDist() int64 {
	m := int64(len(h.distR))
	if int64(len(h.distW)) > m {
		m = int64(len(h.distW))
	}
	if int64(len(h.wbDiff))-1 > m {
		m = int64(len(h.wbDiff)) - 1
	}
	return m
}

// eval produces the exact Stats of a cache with the level's set count
// and line size and `assoc` ways, for write-back or write-through
// (write-allocate) policies.
func (h *mrcHist) eval(assoc int64, ls int64, policy WritePolicy) Stats {
	var rm, wm int64
	for d := assoc; d < int64(len(h.distR)); d++ {
		rm += h.distR[d]
	}
	for d := assoc; d < int64(len(h.distW)); d++ {
		wm += h.distW[d]
	}
	rm += h.coldR
	wm += h.coldW
	st := Stats{
		Reads: h.reads, Writes: h.writes,
		ReadMisses: rm, WriteMisses: wm,
		BytesIn: (rm + wm) * ls,
	}
	if policy == WriteThrough {
		st.BytesOut = h.writes * ls
		return st
	}
	var wb int64
	for a := int64(0); a <= assoc && a < int64(len(h.wbDiff)); a++ {
		wb += h.wbDiff[a]
	}
	st.Writebacks = wb
	st.BytesOut = wb * ls
	return st
}

// mrcLevel holds the reuse-distance state of one cache level.
type mrcLevel struct {
	geometry
	cfg   CacheConfig
	ls    int64
	sets  map[int64]*mrcSet
	total mrcHist
	sites map[uint32]*mrcHist
}

func (l *mrcLevel) site(id uint32) *mrcHist {
	h := l.sites[id]
	if h == nil {
		h = &mrcHist{}
		l.sites[id] = h
	}
	return h
}

func (l *mrcLevel) record(tag int64, write bool, site uint32) {
	si := l.setIndex(tag)
	set := l.sets[si]
	if set == nil {
		set = newMrcSet()
		l.sets[si] = set
	}
	d, ln := set.touch(tag)
	l.total.record(d, write)
	sh := l.site(site)
	sh.record(d, write)
	if l.cfg.Policy != WriteBack {
		return
	}
	// Eviction writeback: for associativities in (wMax, d] the line
	// was evicted dirty before this access.
	if ln.hasW && d > ln.wMax {
		l.total.addWbRange(ln.wMax+1, d+1)
		l.site(ln.wOwner).addWbRange(ln.wMax+1, d+1)
	}
	if write {
		ln.hasW, ln.wOwner, ln.wMax = true, site, 0
	} else if ln.hasW && d > ln.wMax {
		ln.wMax = d
	}
}

// finalize applies the program-end Flush writebacks: every line with
// a write since its last eviction-at-A writes back for all A > wMax.
func (l *mrcLevel) finalize() {
	if l.cfg.Policy != WriteBack {
		return
	}
	for _, set := range l.sets {
		for _, ln := range set.lines {
			if ln.hasW {
				l.total.addWbRange(ln.wMax+1, -1)
				l.site(ln.wOwner).addWbRange(ln.wMax+1, -1)
				ln.hasW = false
			}
		}
	}
}

// mrcEpochs buckets the processor access stream into up to maxEpochs
// fixed-width windows, doubling the width (merging bucket pairs) as
// the stream grows. Distinct-line working sets stay exact under
// merging because each line access records the absolute index of its
// previous access: a line is distinct within a window iff its
// previous access predates the window start.
const maxEpochs = 512

type mrcEpochs struct {
	width   int64 // processor accesses per bucket (power-of-two growth)
	n       int   // buckets in use
	idx     int64 // processor access counter
	cur     int   // bucket of the access being processed
	procB   []int64
	flops   []int64
	memB    []int64
	cold    []int64            // first-ever line touches per bucket
	reuse   [][]int64          // reuse[b][p]: re-touches in b with previous access in bucket p
	memSite []map[uint32]int64 // per-bucket per-site memory bytes (owner-pays)
	lastIdx map[int64]int64    // line tag (memory-side granularity) -> last access index
	memLS   int64              // line size of the memory-facing level
}

func newMrcEpochs(memLS int64) *mrcEpochs {
	return &mrcEpochs{width: 16, memLS: memLS, lastIdx: make(map[int64]int64)}
}

func (t *mrcEpochs) bucket() int {
	b := int(t.idx / t.width)
	if b >= maxEpochs {
		t.halve()
		b = int(t.idx / t.width)
	}
	for t.n <= b {
		t.procB = append(t.procB, 0)
		t.flops = append(t.flops, 0)
		t.memB = append(t.memB, 0)
		t.cold = append(t.cold, 0)
		t.reuse = append(t.reuse, make([]int64, t.n+1))
		t.memSite = append(t.memSite, nil)
		t.n++
	}
	return b
}

// halve doubles the bucket width by merging adjacent pairs. All
// per-bucket counters are additive; reuse[][] merges with both
// indices halved, which is exact because widths only ever double.
func (t *mrcEpochs) halve() {
	t.width *= 2
	half := (t.n + 1) / 2
	for i := 0; i < half; i++ {
		a, b := 2*i, 2*i+1
		t.procB[i] = t.procB[a]
		t.flops[i] = t.flops[a]
		t.memB[i] = t.memB[a]
		t.cold[i] = t.cold[a]
		nr := make([]int64, i+1)
		for p, v := range t.reuse[a] {
			nr[p/2] += v
		}
		ms := t.memSite[a]
		if b < t.n {
			t.procB[i] += t.procB[b]
			t.flops[i] += t.flops[b]
			t.memB[i] += t.memB[b]
			t.cold[i] += t.cold[b]
			for p, v := range t.reuse[b] {
				nr[p/2] += v
			}
			if t.memSite[b] != nil {
				if ms == nil {
					ms = t.memSite[b]
				} else {
					for k, v := range t.memSite[b] {
						ms[k] += v
					}
				}
			}
		}
		t.reuse[i] = nr
		t.memSite[i] = ms
	}
	t.procB = t.procB[:half]
	t.flops = t.flops[:half]
	t.memB = t.memB[:half]
	t.cold = t.cold[:half]
	t.reuse = t.reuse[:half]
	t.memSite = t.memSite[:half]
	t.n = half
}

// tick records one processor access spanning [addr, addr+size) at the
// memory-facing line granularity.
func (t *mrcEpochs) tick(addr int64, size int) {
	b := t.bucket()
	t.cur = b
	t.procB[b] += int64(size)
	first := addr &^ (t.memLS - 1)
	last := (addr + int64(size) - 1) &^ (t.memLS - 1)
	for a := first; a <= last; a += t.memLS {
		tag := a / t.memLS
		if prev, ok := t.lastIdx[tag]; ok {
			p := int(prev / t.width)
			t.reuse[b][p]++
		} else {
			t.cold[b]++
		}
		t.lastIdx[tag] = t.idx
	}
	t.idx++
}

func (t *mrcEpochs) addFlops(n int64) {
	if t.n == 0 {
		t.bucket()
		t.cur = 0
	}
	t.flops[t.cur] += n
}

func (t *mrcEpochs) mem(site uint32) {
	if t.n == 0 {
		t.bucket()
		t.cur = 0
	}
	t.memB[t.cur] += t.memLS
	ms := t.memSite[t.cur]
	if ms == nil {
		ms = make(map[uint32]int64)
		t.memSite[t.cur] = ms
	}
	ms[site] += t.memLS
}

// Epoch is one window of the phase timeline.
type Epoch struct {
	Index     int
	StartStep int64 // first processor access index of the window
	Steps     int64 // processor accesses in the window
	ProcBytes int64 // register-channel bytes
	MemBytes  int64 // memory-channel bytes (fills + writebacks)
	Flops     int64
	WSLines   int64 // distinct memory-granularity lines touched in the window
	NewLines  int64 // lines touched for the first time ever in the window
	// MemBySite attributes the window's memory bytes to the site that
	// caused them (writebacks owner-pays, as in the fixed simulator).
	MemBySite map[uint32]int64
}

// epochs aggregates the fine buckets into at most n windows, exactly.
func (t *mrcEpochs) epochs(n int) []Epoch {
	if t.n == 0 || n <= 0 {
		return nil
	}
	if n > t.n {
		n = t.n
	}
	out := make([]Epoch, 0, n)
	for g := 0; g < n; g++ {
		s := g * t.n / n
		e := (g + 1) * t.n / n
		ep := Epoch{Index: g, StartStep: int64(s) * t.width, Steps: int64(e-s) * t.width}
		if e == t.n { // last window: clip to the actual stream length
			ep.Steps = t.idx - ep.StartStep
		}
		for b := s; b < e; b++ {
			ep.ProcBytes += t.procB[b]
			ep.Flops += t.flops[b]
			ep.MemBytes += t.memB[b]
			ep.NewLines += t.cold[b]
			ep.WSLines += t.cold[b]
			for p, v := range t.reuse[b] {
				if p < s {
					ep.WSLines += v
				}
			}
			for k, v := range t.memSite[b] {
				if ep.MemBySite == nil {
					ep.MemBySite = make(map[uint32]int64)
				}
				ep.MemBySite[k] += v
			}
		}
		out = append(out, ep)
	}
	return out
}

// MRCRecorder carries the one-pass reuse-distance state of a whole
// hierarchy. It is created by Hierarchy.EnableMRC and fed by the same
// access stream that drives the fixed-capacity counters.
type MRCRecorder struct {
	levels    []*mrcLevel
	epochs    *mrcEpochs
	finalized bool
}

// EnableMRC attaches a reuse-distance recorder to the hierarchy. It
// must be called before the first access. Levels with
// NoWriteAllocate are rejected: a write miss that bypasses the cache
// does not update recency, so whether it installs depends on the
// capacity under study and the one-pass stack property breaks.
func (h *Hierarchy) EnableMRC() error {
	r, err := newMRCRecorder(h.configs())
	if err != nil {
		return err
	}
	h.unpartition()
	h.mrc = r
	return nil
}

// newMRCRecorder builds a recorder over the given level geometries,
// processor side first.
func newMRCRecorder(cfgs []CacheConfig) (*MRCRecorder, error) {
	r := &MRCRecorder{}
	for _, cfg := range cfgs {
		if cfg.NoWriteAllocate {
			return nil, fmt.Errorf("sim: mrc: level %s uses no-write-allocate; reuse-distance analysis requires write-allocate", cfg.Name)
		}
		r.levels = append(r.levels, &mrcLevel{
			geometry: newGeometry(cfg),
			cfg:      cfg,
			ls:       int64(cfg.LineSize),
			sets:     make(map[int64]*mrcSet),
			sites:    make(map[uint32]*mrcHist),
		})
	}
	r.epochs = newMrcEpochs(int64(cfgs[len(cfgs)-1].LineSize))
	return r, nil
}

// MRC returns the attached recorder, or nil when recording is off.
func (h *Hierarchy) MRC() *MRCRecorder { return h.mrc }

// record is the per-level hook the Hierarchy calls for every
// line-granular access a cache level observes.
func (r *MRCRecorder) record(lvl int, tag int64, write bool, site uint32) {
	r.levels[lvl].record(tag, write, site)
}

// finalize applies program-end Flush writebacks; idempotent.
func (r *MRCRecorder) finalize() {
	if r.finalized {
		return
	}
	r.finalized = true
	for _, l := range r.levels {
		l.finalize()
	}
}

// Levels returns the number of recorded cache levels.
func (r *MRCRecorder) Levels() int { return len(r.levels) }

// LevelConfig returns the geometry the level's curve is swept around.
func (r *MRCRecorder) LevelConfig(i int) CacheConfig { return r.levels[i].cfg }

// Sets returns the number of sets of level i (fixed along the curve).
func (r *MRCRecorder) Sets(i int) int64 { return r.levels[i].nsets }

// MaxAssoc returns the smallest associativity of level i at which
// only compulsory misses (and final-flush writebacks) remain; the
// curve is flat at and beyond MaxAssoc.
func (r *MRCRecorder) MaxAssoc(i int) int64 {
	m := r.levels[i].total.maxDist()
	if m < 1 {
		return 1
	}
	return m
}

// Eval returns the exact Stats of level i rebuilt as a cache with the
// recorded set count and line size and the given associativity,
// including program-end flush writebacks. Evaluating at the
// configured associativity reproduces the fixed simulation exactly.
func (r *MRCRecorder) Eval(i int, assoc int64) Stats {
	r.finalize()
	l := r.levels[i]
	return l.total.eval(assoc, l.ls, l.cfg.Policy)
}

// EvalCapacity is Eval with a byte capacity; the capacity must be a
// positive multiple of sets×line.
func (r *MRCRecorder) EvalCapacity(i int, capacity int64) (Stats, error) {
	l := r.levels[i]
	unit := l.nsets * l.ls
	if capacity <= 0 || capacity%unit != 0 {
		return Stats{}, fmt.Errorf("sim: mrc: capacity %d not a positive multiple of sets*line (%d) for %s", capacity, unit, l.cfg.Name)
	}
	return r.Eval(i, capacity/unit), nil
}

// Sites returns the site IDs observed at level i, ascending.
func (r *MRCRecorder) Sites(i int) []uint32 {
	out := make([]uint32, 0, len(r.levels[i].sites))
	for id := range r.levels[i].sites {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// EvalSite returns the exact per-site Stats of level i at the given
// associativity (fills charged to the accessor, writebacks to the
// last dirtier, the fixed simulator's owner-pays policy). Per-site
// Stats sum to Eval's totals at every associativity.
func (r *MRCRecorder) EvalSite(i int, site uint32, assoc int64) Stats {
	r.finalize()
	l := r.levels[i]
	h := l.sites[site]
	if h == nil {
		return Stats{}
	}
	st := h.eval(assoc, l.ls, l.cfg.Policy)
	if l.cfg.Policy == WriteThrough {
		// Write-through BytesOut belongs to the writing site already.
		st.BytesOut = h.writes * l.ls
	}
	return st
}

// Epochs returns the phase timeline aggregated into at most n
// windows. Working-set counts are exact at any aggregation.
func (r *MRCRecorder) Epochs(n int) []Epoch { return r.epochs.epochs(n) }

// MemLineSize returns the line size (bytes) at the memory interface,
// the granularity of the timeline's working-set counts.
func (r *MRCRecorder) MemLineSize() int64 { return r.epochs.memLS }

// Accesses returns the number of processor accesses observed.
func (r *MRCRecorder) Accesses() int64 { return r.epochs.idx }
