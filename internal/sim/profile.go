package sim

// Per-site traffic attribution. When profiling is enabled the hierarchy
// buckets every counter it already keeps by the attribution site of the
// access (ir.SiteID, threaded through LoadSite/StoreSite as a raw
// uint32; site 0 collects unattributed traffic). The accounting is
// conservative by construction — every event recorded in a level's
// Stats is simultaneously recorded in exactly one site bucket — so at
// any moment and for every level, summing the per-site Stats fields
// reproduces the level totals exactly.

// Profile accumulates per-site, per-level counters for one hierarchy.
type Profile struct {
	// levels[lvl][site] are the site buckets of cache level lvl; the
	// slices grow on demand as higher site IDs appear.
	levels [][]Stats
	// reg[site] counts register-channel bytes (loads + stores).
	reg []int64
}

// EnableProfiling switches per-site attribution on, resetting any
// previously collected profile. Profiling never changes simulated
// behavior, only what is recorded.
func (h *Hierarchy) EnableProfiling() {
	h.unpartition()
	h.prof = &Profile{levels: make([][]Stats, len(h.levels))}
}

// Profile returns the collected attribution, or nil if profiling was
// never enabled. The returned buckets are live: further simulated
// accesses keep updating them.
func (h *Hierarchy) Profile() *Profile { return h.prof }

// siteStats returns the bucket of one site at one level, growing the
// level's slice if the site is new. The pointer is invalidated by any
// later siteStats call for the same level (growth may reallocate).
func (p *Profile) siteStats(lvl int, site uint32) *Stats {
	ss := p.levels[lvl]
	if int(site) >= len(ss) {
		grown := make([]Stats, site+1)
		copy(grown, ss)
		p.levels[lvl] = grown
		ss = grown
	}
	return &ss[site]
}

func (p *Profile) addReg(site uint32, n int64) {
	if int(site) >= len(p.reg) {
		grown := make([]int64, site+1)
		copy(grown, p.reg)
		p.reg = grown
	}
	p.reg[site] += n
}

func (p *Profile) reset() {
	for i := range p.levels {
		p.levels[i] = nil
	}
	p.reg = nil
}

// SiteStats returns a copy of the per-site buckets of cache level lvl,
// indexed by site ID. Sites beyond the returned length never accessed
// the level.
func (p *Profile) SiteStats(lvl int) []Stats {
	if p == nil || lvl >= len(p.levels) {
		return nil
	}
	return append([]Stats(nil), p.levels[lvl]...)
}

// RegBytes returns a copy of the per-site register-channel byte counts,
// indexed by site ID.
func (p *Profile) RegBytes() []int64 {
	if p == nil {
		return nil
	}
	return append([]int64(nil), p.reg...)
}
