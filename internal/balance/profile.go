package balance

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bounds"
	"repro/internal/ir"
	"repro/internal/report"
	"repro/internal/sim"
)

// Traffic attribution: the profiled flavor of measurement. Where a
// plain Measure says "this kernel moved N bytes", Options.Profile also
// says which reference site, loop nest and array moved them — the
// feedback signal layout and fusion decisions need. The decomposition
// is exact: per-site counters sum to the level totals at every level
// (the simulator charges every byte to exactly one site; see
// sim.Profile).

// UnattributedName labels traffic from accesses that carried no site ID
// (site 0) in attribution breakdowns. A profiled measurement assigns
// sites to every reference first, so this bucket is normally empty.
const UnattributedName = "(unattributed)"

// SiteTraffic is the traffic of one reference site.
type SiteTraffic struct {
	Site     ir.Site
	RegBytes int64       // register-channel bytes this site moved
	Levels   []sim.Stats // per cache level, processor-side first
}

// MemoryBytes returns the site's traffic on the cache↔memory channel.
func (s *SiteTraffic) MemoryBytes() int64 {
	if len(s.Levels) == 0 {
		return 0
	}
	return s.Levels[len(s.Levels)-1].Traffic()
}

// ArrayTraffic aggregates site traffic per array.
type ArrayTraffic struct {
	Array       string  `json:"array"`
	RegBytes    int64   `json:"reg_bytes"`
	LevelBytes  []int64 `json:"level_bytes"`  // channel bytes per cache level
	MemoryBytes int64   `json:"memory_bytes"` // cache↔memory channel bytes
	// BoundBytes is the array's compulsory floor (8·(live-in+live-out))
	// and Gap the ratio MemoryBytes/BoundBytes; both zero when bounds
	// were not attached or the floor carries no information.
	BoundBytes int64   `json:"bound_bytes,omitempty"`
	Gap        float64 `json:"gap,omitempty"`
}

// NestTraffic aggregates site traffic per loop nest.
type NestTraffic struct {
	Nest        string  `json:"nest"`
	LevelBytes  []int64 `json:"level_bytes"`
	MemoryBytes int64   `json:"memory_bytes"`
}

// Attribution is the full traffic decomposition of one profiled run.
type Attribution struct {
	LevelNames []string       // cache level names, processor-side first
	Sites      []SiteTraffic  // every reference site, table order
	Arrays     []ArrayTraffic // aggregated, largest memory traffic first
	Nests      []NestTraffic  // aggregated, largest memory traffic first

	prog   *ir.Program
	bySite map[ir.SiteID]*SiteTraffic
}

// buildAttribution assembles the decomposition from the site table and
// the hierarchy's profile after a run.
func buildAttribution(p *ir.Program, table *ir.SiteTable, h *sim.Hierarchy) *Attribution {
	prof := h.Profile()
	nlv := h.Levels()
	a := &Attribution{prog: p, bySite: map[ir.SiteID]*SiteTraffic{}}
	perLevel := make([][]sim.Stats, nlv)
	for i := 0; i < nlv; i++ {
		a.LevelNames = append(a.LevelNames, h.LevelConfig(i).Name)
		perLevel[i] = prof.SiteStats(i)
	}
	reg := prof.RegBytes()

	addSite := func(meta ir.Site) {
		st := SiteTraffic{Site: meta, Levels: make([]sim.Stats, nlv)}
		id := int(meta.ID)
		if id < len(reg) {
			st.RegBytes = reg[id]
		}
		for lvl := 0; lvl < nlv; lvl++ {
			if id < len(perLevel[lvl]) {
				st.Levels[lvl] = perLevel[lvl][id]
			}
		}
		a.Sites = append(a.Sites, st)
	}
	for _, s := range table.Sites() {
		addSite(s)
	}
	// The site-0 bucket collects untagged accesses (it stays empty when
	// every reference was assigned a site before the run); keep it
	// visible rather than silently dropping traffic.
	zero := false
	if len(reg) > 0 && reg[0] != 0 {
		zero = true
	}
	for lvl := 0; lvl < nlv; lvl++ {
		if len(perLevel[lvl]) > 0 && perLevel[lvl][0] != (sim.Stats{}) {
			zero = true
		}
	}
	if zero {
		addSite(ir.Site{ID: 0, Array: UnattributedName, Ref: "(untagged accesses)"})
	}
	for i := range a.Sites {
		a.bySite[a.Sites[i].Site.ID] = &a.Sites[i]
	}

	// Aggregate per array and per nest.
	arrays := map[string]*ArrayTraffic{}
	nests := map[string]*NestTraffic{}
	for i := range a.Sites {
		st := &a.Sites[i]
		at := arrays[st.Site.Array]
		if at == nil {
			at = &ArrayTraffic{Array: st.Site.Array, LevelBytes: make([]int64, nlv)}
			arrays[st.Site.Array] = at
		}
		at.RegBytes += st.RegBytes
		for lvl, ls := range st.Levels {
			at.LevelBytes[lvl] += ls.Traffic()
		}
		if st.Site.Nest != "" {
			nt := nests[st.Site.Nest]
			if nt == nil {
				nt = &NestTraffic{Nest: st.Site.Nest, LevelBytes: make([]int64, nlv)}
				nests[st.Site.Nest] = nt
			}
			for lvl, ls := range st.Levels {
				nt.LevelBytes[lvl] += ls.Traffic()
			}
		}
	}
	for _, at := range arrays {
		if nlv > 0 {
			at.MemoryBytes = at.LevelBytes[nlv-1]
		}
		a.Arrays = append(a.Arrays, *at)
	}
	for _, nt := range nests {
		if nlv > 0 {
			nt.MemoryBytes = nt.LevelBytes[nlv-1]
		}
		a.Nests = append(a.Nests, *nt)
	}
	sort.Slice(a.Arrays, func(i, j int) bool {
		if a.Arrays[i].MemoryBytes != a.Arrays[j].MemoryBytes {
			return a.Arrays[i].MemoryBytes > a.Arrays[j].MemoryBytes
		}
		return a.Arrays[i].Array < a.Arrays[j].Array
	})
	sort.Slice(a.Nests, func(i, j int) bool {
		if a.Nests[i].MemoryBytes != a.Nests[j].MemoryBytes {
			return a.Nests[i].MemoryBytes > a.Nests[j].MemoryBytes
		}
		return a.Nests[i].Nest < a.Nests[j].Nest
	})
	return a
}

// attachBounds folds per-array compulsory floors into the array rows.
func (a *Attribution) attachBounds(fp *bounds.Footprint) {
	floors := map[string]int64{}
	for _, af := range fp.Arrays {
		floors[af.Array] = af.BoundBytes()
	}
	for i := range a.Arrays {
		at := &a.Arrays[i]
		at.BoundBytes = floors[at.Array]
		if at.BoundBytes > 0 && at.MemoryBytes >= 0 {
			at.Gap = float64(at.MemoryBytes) / float64(at.BoundBytes)
		}
	}
}

// ProfileSummary is the wire-format projection of an Attribution: the
// per-array and per-nest aggregates without the per-site detail. The
// bwopt -json report and the service's "profile" response block both
// serialize this shape.
type ProfileSummary struct {
	LevelNames  []string       `json:"level_names"`
	MemoryBytes int64          `json:"memory_bytes"` // Σ Arrays[].MemoryBytes
	Arrays      []ArrayTraffic `json:"arrays"`
	Nests       []NestTraffic  `json:"nests,omitempty"`
}

// Summary projects the attribution onto its wire format.
func (a *Attribution) Summary() *ProfileSummary {
	if a == nil {
		return nil
	}
	s := &ProfileSummary{LevelNames: a.LevelNames, Arrays: a.Arrays, Nests: a.Nests}
	for _, at := range a.Arrays {
		s.MemoryBytes += at.MemoryBytes
	}
	return s
}

// TrafficRows projects the per-array aggregation onto the report
// package's table rows (report.ArrayTraffic renders them).
func (a *Attribution) TrafficRows() []report.ArrayTrafficRow {
	rows := make([]report.ArrayTrafficRow, 0, len(a.Arrays))
	for _, at := range a.Arrays {
		rows = append(rows, report.ArrayTrafficRow{
			Array:      at.Array,
			RegBytes:   at.RegBytes,
			LevelBytes: at.LevelBytes,
			BoundBytes: at.BoundBytes,
			Gap:        at.Gap,
		})
	}
	return rows
}

// ArrayByName returns the aggregated row of one array, or nil.
func (a *Attribution) ArrayByName(name string) *ArrayTraffic {
	for i := range a.Arrays {
		if a.Arrays[i].Array == name {
			return &a.Arrays[i]
		}
	}
	return nil
}

// AnnotatedListing renders the profiled program with a traffic comment
// on every statement that references an array: the reference's memory-
// channel bytes, i.e. what that line of code cost on the paper's
// bottleneck channel.
func (a *Attribution) AnnotatedListing() string {
	if a == nil || a.prog == nil {
		return ""
	}
	return a.prog.StringAnnotated(func(s ir.Stmt) string {
		switch s.(type) {
		case *ir.Assign, *ir.ReadInput, *ir.Print:
		default:
			return "" // block statements: their bodies annotate themselves
		}
		var parts []string
		seen := map[ir.SiteID]bool{}
		ir.WalkRefs([]ir.Stmt{s}, a.prog, func(r *ir.Ref, _ bool) {
			if seen[r.Site] {
				return
			}
			seen[r.Site] = true
			st := a.bySite[r.Site]
			if st == nil {
				return
			}
			ref := st.Site.Ref
			if st.Site.Write {
				ref = "store " + ref
			}
			parts = append(parts, fmt.Sprintf("%s mem %s", ref, report.Bytes(st.MemoryBytes())))
		})
		return strings.Join(parts, ", ")
	})
}

// --- Pass-delta attribution ----------------------------------------------

// ArrayDelta is one array's memory-traffic change across one pass.
type ArrayDelta struct {
	Array  string `json:"array"`
	Before int64  `json:"before"`
	After  int64  `json:"after"`
}

// Saved returns the bytes the pass removed from the array (negative:
// the pass added traffic).
func (d ArrayDelta) Saved() int64 { return d.Before - d.After }

// PassDelta is the per-array attribution diff across one committed
// pass: what each pass bought, array by array.
type PassDelta struct {
	Pass         string `json:"pass"`
	MemoryBefore int64  `json:"memory_before"`
	MemoryAfter  int64  `json:"memory_after"`
	// Arrays lists the arrays whose memory traffic changed, largest
	// saving first.
	Arrays []ArrayDelta `json:"arrays,omitempty"`
}

// DeltaRows projects pass deltas onto the report package's table rows
// (report.PassDeltas renders them).
func DeltaRows(ds []PassDelta) []report.PassDeltaRow {
	rows := make([]report.PassDeltaRow, 0, len(ds))
	for _, d := range ds {
		r := report.PassDeltaRow{Pass: d.Pass, MemoryBefore: d.MemoryBefore, MemoryAfter: d.MemoryAfter}
		for _, ad := range d.Arrays {
			r.Arrays = append(r.Arrays, report.ArrayDeltaCell{Array: ad.Array, Before: ad.Before, After: ad.After})
		}
		rows = append(rows, r)
	}
	return rows
}

func diffAttribution(pass string, before, after *Report) PassDelta {
	d := PassDelta{Pass: pass, MemoryBefore: before.MemoryBytes, MemoryAfter: after.MemoryBytes}
	b := map[string]int64{}
	for _, at := range before.Attribution.Arrays {
		b[at.Array] = at.MemoryBytes
	}
	a := map[string]int64{}
	for _, at := range after.Attribution.Arrays {
		a[at.Array] = at.MemoryBytes
	}
	seen := map[string]bool{}
	for name, bb := range b {
		seen[name] = true
		if aa := a[name]; aa != bb {
			d.Arrays = append(d.Arrays, ArrayDelta{Array: name, Before: bb, After: aa})
		}
	}
	for name, aa := range a {
		if !seen[name] && aa != 0 {
			d.Arrays = append(d.Arrays, ArrayDelta{Array: name, Before: 0, After: aa})
		}
	}
	sort.Slice(d.Arrays, func(i, j int) bool {
		if d.Arrays[i].Saved() != d.Arrays[j].Saved() {
			return d.Arrays[i].Saved() > d.Arrays[j].Saved()
		}
		return d.Arrays[i].Array < d.Arrays[j].Array
	})
	return d
}
