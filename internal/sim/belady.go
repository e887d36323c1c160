package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/trace"
)

// ErrCanceled is returned (wrapped) when a trace replay is abandoned
// because its context was canceled or its deadline expired.
var ErrCanceled = errors.New("sim: replay canceled")

// replayPollMask sets how often the replay loop polls its context:
// every replayPollMask+1 line accesses.
const replayPollMask = 0x3FFF

// Belady (MIN) replacement support. Burger, Goodman and Kägi (ISCA'96)
// bounded the benefit of smarter cache management by simulating SPEC
// under Belady's optimal replacement policy; the paper's related-work
// section discusses the result (and its impracticality: the hardware
// would need perfect future knowledge). This file reproduces that
// methodology: record a trace, then replay it under the optimal
// policy, which evicts the line whose next use lies farthest in the
// future.

// Trace is a recorded line-granular access trace for one cache
// configuration.
type Trace struct {
	cfg    CacheConfig
	lines  []int64 // line-aligned addresses
	writes []bool
	sites  []uint32 // attribution site per access (0 = unattributed)
}

// Len returns the number of recorded line accesses.
func (t *Trace) Len() int { return len(t.lines) }

// At returns the i'th recorded access: its line-aligned address and
// whether it was a write. Differential tests use it to compare the
// access streams of the two execution engines element-wise.
func (t *Trace) At(i int) (line int64, write bool) { return t.lines[i], t.writes[i] }

// Recorder captures a processor-level access stream. It implements the
// executor's Machine interface, so a program can be run "onto" a
// recorder directly.
type Recorder struct {
	trace Trace
	Flops int64
}

// NewRecorder returns a recorder that snaps accesses to the line size
// of cfg.
func NewRecorder(cfg CacheConfig) (*Recorder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Recorder{trace: Trace{cfg: cfg}}, nil
}

// LoadSite records a read access tagged with its attribution site.
func (r *Recorder) LoadSite(addr int64, size int, site uint32) { r.record(addr, size, false, site) }

// StoreSite records a write access tagged with its attribution site.
func (r *Recorder) StoreSite(addr int64, size int, site uint32) { r.record(addr, size, true, site) }

// AddFlops counts flops (for symmetry with the hierarchy).
func (r *Recorder) AddFlops(n int64) { r.Flops += n }

// Flush is intentionally a no-op. The recorder captures the processor's
// access stream, not a cache's state, so there are no dirty lines to
// write back at program end; final writebacks are synthesized by the
// replay itself (the flush loop in replayTrace), which charges them to
// the last writer of each line exactly as Hierarchy.Flush does. The
// contract for callers: a trace replay always accounts for end-of-run
// writebacks, so replayed counters are comparable to a hierarchy that
// has been flushed — never to a hierarchy still holding dirty lines
// ("warm"). Replaying a trace recorded from only part of a computation
// therefore overstates BytesOut relative to a warm hierarchy that kept
// those lines dirty and resident.
func (r *Recorder) Flush() {}

func (r *Recorder) record(addr int64, size int, write bool, site uint32) {
	ls := int64(r.trace.cfg.LineSize)
	first := addr &^ (ls - 1)
	last := (addr + int64(size) - 1) &^ (ls - 1)
	for a := first; a <= last; a += ls {
		r.trace.lines = append(r.trace.lines, a)
		r.trace.writes = append(r.trace.writes, write)
		r.trace.sites = append(r.trace.sites, site)
	}
}

// Trace returns the recorded trace.
func (r *Recorder) Trace() *Trace { return &r.trace }

// ReplayBelady replays the trace through a single cache level under
// Belady's optimal replacement and returns the resulting counters
// (including final writebacks of dirty lines, matching
// Hierarchy.Flush accounting).
func ReplayBelady(t *Trace) (Stats, error) {
	return replay(context.Background(), t, true)
}

// ReplayLRU replays the trace through the same single level under LRU,
// for an apples-to-apples comparison on the identical trace.
func ReplayLRU(t *Trace) (Stats, error) {
	return replay(context.Background(), t, false)
}

// ReplayBeladyCtx is ReplayBelady with cancellation: the replay loop
// polls ctx periodically and abandons the trace with an error wrapping
// ErrCanceled once ctx is done.
func ReplayBeladyCtx(ctx context.Context, t *Trace) (Stats, error) {
	return replay(ctx, t, true)
}

// ReplayLRUCtx is ReplayLRU with cancellation.
func ReplayLRUCtx(ctx context.Context, t *Trace) (Stats, error) {
	return replay(ctx, t, false)
}

// ReplayBeladyAttributed is ReplayBelady returning, alongside the
// totals, per-site counters indexed by the attribution site IDs the
// trace was recorded with. The accounting matches the hierarchy's
// owner-pays policy: fills are charged to the accessing site and
// writebacks (eviction and final flush) to the last writer of the line,
// so the per-site stats sum to the totals field-by-field.
func ReplayBeladyAttributed(ctx context.Context, t *Trace) (Stats, []Stats, error) {
	return replayAttributed(ctx, t, true)
}

// ReplayLRUAttributed is ReplayLRU with per-site attribution.
func ReplayLRUAttributed(ctx context.Context, t *Trace) (Stats, []Stats, error) {
	return replayAttributed(ctx, t, false)
}

const never = int(^uint(0) >> 1) // sentinel next-use for "no future use"

func replay(ctx context.Context, t *Trace, belady bool) (Stats, error) {
	st, _, err := replayAttributed(ctx, t, belady)
	return st, err
}

func replayAttributed(ctx context.Context, t *Trace, belady bool) (Stats, []Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	policy := "lru"
	if belady {
		policy = "belady"
	}
	ctx, span := trace.StartSpan(ctx, "sim.replay",
		trace.String("policy", policy), trace.Int("accesses", int64(t.Len())))
	st, sites, err := replayTrace(ctx, t, belady)
	if err != nil {
		span.End(trace.String("error", err.Error()))
		return st, nil, err
	}
	span.End(trace.Int("misses", st.Misses()), trace.Int("writebacks", st.Writebacks))
	return st, sites, nil
}

func replayTrace(ctx context.Context, t *Trace, belady bool) (Stats, []Stats, error) {
	cfg := t.cfg
	if err := cfg.Validate(); err != nil {
		return Stats{}, nil, err
	}
	if cfg.Policy != WriteBack || cfg.NoWriteAllocate {
		return Stats{}, nil, fmt.Errorf("sim: replay supports write-back write-allocate caches")
	}
	g := newGeometry(cfg)
	ls := int64(cfg.LineSize)

	// Pre-compute next-use chains: nextUse[i] = index of the next
	// access to the same line, or never.
	nextUse := make([]int, len(t.lines))
	lastSeen := map[int64]int{}
	for i := len(t.lines) - 1; i >= 0; i-- {
		if j, ok := lastSeen[t.lines[i]]; ok {
			nextUse[i] = j
		} else {
			nextUse[i] = never
		}
		lastSeen[t.lines[i]] = i
	}

	type line struct {
		addr  int64
		dirty bool
		next  int    // next use index (Belady) — refreshed on access
		used  int    // last access index (LRU)
		site  uint32 // last dirtier; owns the eventual writeback
	}
	// Every set back to back, as in Hierarchy: set s is
	// lines[s*assoc : s*assoc+fill[s]], filled in arrival order.
	assoc := cfg.Assoc
	lines := make([]line, g.nsets*int64(assoc))
	fill := make([]int, g.nsets)
	var st Stats
	// Per-site buckets, grown on demand; same owner-pays accounting as
	// the Hierarchy, so per-site sums equal st field-by-field.
	var bySite []Stats
	bucket := func(site uint32) *Stats {
		if int(site) >= len(bySite) {
			grown := make([]Stats, site+1)
			copy(grown, bySite)
			bySite = grown
		}
		return &bySite[site]
	}

	for i, addr := range t.lines {
		if i&replayPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return Stats{}, nil, fmt.Errorf("%w after %d of %d accesses: %v", ErrCanceled, i, len(t.lines), err)
			}
		}
		write := t.writes[i]
		site := t.sites[i]
		ps := bucket(site)
		if write {
			st.Writes++
			ps.Writes++
		} else {
			st.Reads++
			ps.Reads++
		}
		s := g.setIndex(addr >> g.shift)
		set := lines[int(s)*assoc : int(s)*assoc+fill[s]]
		hit := false
		for k := range set {
			if set[k].addr == addr {
				hit = true
				set[k].next = nextUse[i]
				set[k].used = i
				if write {
					set[k].dirty = true
					set[k].site = site
				}
				break
			}
		}
		if hit {
			continue
		}
		if write {
			st.WriteMisses++
			ps.WriteMisses++
		} else {
			st.ReadMisses++
			ps.ReadMisses++
		}
		st.BytesIn += ls
		ps.BytesIn += ls
		nl := line{addr: addr, dirty: write, next: nextUse[i], used: i, site: site}
		if len(set) < assoc {
			lines[int(s)*assoc+len(set)] = nl
			fill[s]++
			continue
		}
		// Choose a victim: farthest next use (Belady) or least recently
		// used (LRU).
		victim := 0
		for k := 1; k < len(set); k++ {
			if belady {
				if set[k].next > set[victim].next {
					victim = k
				}
			} else {
				if set[k].used < set[victim].used {
					victim = k
				}
			}
		}
		if set[victim].dirty {
			st.Writebacks++
			st.BytesOut += ls
			vs := bucket(set[victim].site)
			vs.Writebacks++
			vs.BytesOut += ls
		}
		set[victim] = nl
	}
	// Final flush of dirty lines, charged to their last writers
	// (Recorder.Flush records nothing; see its contract).
	for s, n := range fill {
		for _, l := range lines[s*assoc : s*assoc+n] {
			if l.dirty {
				st.Writebacks++
				st.BytesOut += ls
				os := bucket(l.site)
				os.Writebacks++
				os.BytesOut += ls
			}
		}
	}
	return st, bySite, nil
}
