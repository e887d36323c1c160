package sim

// The reference simulator: the straightforward set-associative LRU
// hierarchy the fast Hierarchy in sim.go replaced, kept verbatim apart
// from its names. Each access divides by the line size, takes the set
// index modulo the set count and scans a per-set slice; there is no
// memo and no shortcut. The parity tests (parity_test.go) and
// FuzzHierarchyParity run the same access streams through both and
// require every counter the Hierarchy exposes to agree bit for bit.
// It feeds the same Profile and MRCRecorder sinks the Hierarchy does.

type oracleLine struct {
	tag   int64
	used  int64
	site  uint32
	valid bool
	dirty bool
}

type oracleLevel struct {
	cfg   CacheConfig
	sets  [][]oracleLine
	nsets int64
	clock int64
	stats Stats
}

func newOracleLevel(cfg CacheConfig) *oracleLevel {
	n := cfg.Size / cfg.LineSize / cfg.Assoc
	sets := make([][]oracleLine, n)
	for i := range sets {
		sets[i] = make([]oracleLine, cfg.Assoc)
	}
	return &oracleLevel{cfg: cfg, sets: sets, nsets: int64(n)}
}

// oracleHierarchy mirrors Hierarchy's counters and methods.
type oracleHierarchy struct {
	levels              []*oracleLevel
	RegLoadBytes        int64
	RegStoreBytes       int64
	Flops               int64
	MemReads, MemWrites int64
	prof                *Profile
	mrc                 *MRCRecorder
}

func newOracleHierarchy(cfgs ...CacheConfig) (*oracleHierarchy, error) {
	h := &oracleHierarchy{}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		h.levels = append(h.levels, newOracleLevel(c))
	}
	return h, nil
}

func (h *oracleHierarchy) configs() []CacheConfig {
	out := make([]CacheConfig, len(h.levels))
	for i, l := range h.levels {
		out[i] = l.cfg
	}
	return out
}

func (h *oracleHierarchy) EnableProfiling() {
	h.prof = &Profile{levels: make([][]Stats, len(h.levels))}
}

func (h *oracleHierarchy) Profile() *Profile { return h.prof }

func (h *oracleHierarchy) EnableMRC() error {
	r, err := newMRCRecorder(h.configs())
	if err != nil {
		return err
	}
	h.mrc = r
	return nil
}

func (h *oracleHierarchy) MRC() *MRCRecorder { return h.mrc }

func (h *oracleHierarchy) Levels() int { return len(h.levels) }

func (h *oracleHierarchy) LevelStats(i int) Stats { return h.levels[i].stats }

func (h *oracleHierarchy) Load(addr int64, size int) { h.LoadSite(addr, size, 0) }

func (h *oracleHierarchy) Store(addr int64, size int) { h.StoreSite(addr, size, 0) }

func (h *oracleHierarchy) LoadSite(addr int64, size int, site uint32) {
	h.RegLoadBytes += int64(size)
	if h.prof != nil {
		h.prof.addReg(site, int64(size))
	}
	if h.mrc != nil {
		h.mrc.epochs.tick(addr, size)
	}
	h.forEachLine(0, addr, size, false, site)
}

func (h *oracleHierarchy) StoreSite(addr int64, size int, site uint32) {
	h.RegStoreBytes += int64(size)
	if h.prof != nil {
		h.prof.addReg(site, int64(size))
	}
	if h.mrc != nil {
		h.mrc.epochs.tick(addr, size)
	}
	h.forEachLine(0, addr, size, true, site)
}

func (h *oracleHierarchy) AddFlops(n int64) {
	h.Flops += n
	if h.mrc != nil {
		h.mrc.epochs.addFlops(n)
	}
}

func (h *oracleHierarchy) forEachLine(lvl int, addr int64, size int, write bool, site uint32) {
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

func (h *oracleHierarchy) access(lvl int, addr int64, write bool, site uint32) {
	if lvl == len(h.levels) {
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
	var ps *Stats
	if h.prof != nil {
		ps = h.prof.siteStats(lvl, site)
		if write {
			ps.Writes++
		} else {
			ps.Reads++
		}
	}

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = l.clock
			if write {
				if l.cfg.Policy == WriteThrough {
					l.stats.BytesOut += ls
					if ps != nil {
						ps.BytesOut += ls
					}
					h.forEachLine(lvl+1, lineAddr, int(ls), true, site)
				} else {
					set[i].dirty = true
					set[i].site = site
				}
			}
			return
		}
	}

	if write {
		l.stats.WriteMisses++
		if ps != nil {
			ps.WriteMisses++
		}
		if l.cfg.NoWriteAllocate {
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
		l.stats.Writebacks++
		l.stats.BytesOut += ls
		if h.prof != nil {
			vs := h.prof.siteStats(lvl, set[victim].site)
			vs.Writebacks++
			vs.BytesOut += ls
			ps = h.prof.siteStats(lvl, site)
		}
		h.forEachLine(lvl+1, set[victim].tag*ls, int(ls), true, set[victim].site)
	}

	l.stats.BytesIn += ls
	if ps != nil {
		ps.BytesIn += ls
	}
	h.forEachLine(lvl+1, lineAddr, int(ls), false, site)

	set[victim] = oracleLine{tag: tag, valid: true, dirty: false, used: l.clock, site: site}
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

func (h *oracleHierarchy) Flush() {
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

func (h *oracleHierarchy) ResetCounters() {
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
		h.mrc = nil
		_ = h.EnableMRC()
	}
}

func (h *oracleHierarchy) ChannelBytes() []int64 {
	out := make([]int64, len(h.levels)+1)
	out[0] = h.RegLoadBytes + h.RegStoreBytes
	for i, l := range h.levels {
		out[i+1] = l.stats.Traffic()
	}
	return out
}
