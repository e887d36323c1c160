// Miss-ratio-curve measurement: Options.MRC attaches a one-pass
// reuse-distance recorder (internal/sim MRCRecorder) to the primary
// machine's simulation and reports exact miss/traffic curves per cache
// level, per-array curves, a phase timeline, and the capacity knee —
// the smallest fast memory at which the kernel's memory-channel demand
// meets the measured machine's balance.
package balance

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sim"
)

// MRCPoint is one capacity sample of a miss-ratio curve. Every point
// is exact: it equals what a fixed simulation of that capacity (same
// sets, same line size) would count.
type MRCPoint struct {
	CapacityBytes int64   `json:"capacity_bytes"`
	Misses        int64   `json:"misses"`
	ReadMisses    int64   `json:"read_misses"`
	WriteMisses   int64   `json:"write_misses"`
	Writebacks    int64   `json:"writebacks"`
	TrafficBytes  int64   `json:"traffic_bytes"`
	MissRatio     float64 `json:"miss_ratio"`
}

// MRCArray is the capacity-swept traffic of one array (aggregated
// over its reference sites, owner-pays writeback attribution).
type MRCArray struct {
	Array  string     `json:"array"`
	Points []MRCPoint `json:"points"`
}

// MRCSite is one reference site's counters at the level's configured
// capacity.
type MRCSite struct {
	Site         uint32 `json:"site"`
	Array        string `json:"array"`
	Ref          string `json:"ref"`
	Nest         string `json:"nest"`
	Misses       int64  `json:"misses"`
	Writebacks   int64  `json:"writebacks"`
	TrafficBytes int64  `json:"traffic_bytes"`
}

// MRCLevel is the miss-ratio curve of one cache level, swept around
// the machine's geometry (set count and line size fixed, ways
// varied), conditioned on the levels above it staying configured.
type MRCLevel struct {
	Name          string `json:"name"`
	LineSize      int    `json:"line_size"`
	Sets          int64  `json:"sets"`
	Assoc         int    `json:"assoc"`
	CapacityBytes int64  `json:"capacity_bytes"`
	Accesses      int64  `json:"accesses"`
	// MatchesFixed records the inclusion-property oracle: the curve
	// evaluated at the configured capacity reproduced the fixed
	// simulation's counters exactly.
	MatchesFixed bool       `json:"matches_fixed"`
	Points       []MRCPoint `json:"points"`
	Arrays       []MRCArray `json:"arrays,omitempty"`
	Sites        []MRCSite  `json:"sites,omitempty"`
}

// MRCKnee reports, for the measured machine's memory balance, the
// smallest fast-memory capacity (on the machine's own curve: sets and
// line size fixed, ways swept) at which the kernel's bytes-per-flop
// demand falls to the machine's supply. Met=false means even a
// fully-captured working set (compulsory traffic only) demands more
// than the machine offers.
type MRCKnee struct {
	Machine        string  `json:"machine"`
	MachineBalance float64 `json:"machine_balance"`
	KneeBytes      int64   `json:"knee_bytes"`
	Met            bool    `json:"met"`
	// FloorBF is the compulsory-traffic bytes-per-flop floor, the
	// demand left once the fast memory holds the whole working set.
	FloorBF float64 `json:"floor_bytes_per_flop"`
}

// MRCEpoch is one window of the phase timeline.
type MRCEpoch struct {
	Index     int   `json:"index"`
	StartStep int64 `json:"start_step"`
	Steps     int64 `json:"steps"`
	ProcBytes int64 `json:"proc_bytes"`
	MemBytes  int64 `json:"mem_bytes"`
	Flops     int64 `json:"flops"`
	// WSBytes is the distinct data touched within the window (exact,
	// at the memory interface's line granularity); NewBytes the part
	// touched for the first time in the whole run.
	WSBytes  int64 `json:"ws_bytes"`
	NewBytes int64 `json:"new_bytes"`
	// ArrayMemBytes attributes the window's memory-channel bytes per
	// array (writebacks owner-pays).
	ArrayMemBytes map[string]int64 `json:"array_mem_bytes,omitempty"`
}

// MRCResult is the full reuse-distance analysis of one run.
type MRCResult struct {
	Machine  string     `json:"machine"`
	Flops    int64      `json:"flops"`
	Accesses int64      `json:"accesses"`
	Levels   []MRCLevel `json:"levels"`
	Timeline []MRCEpoch `json:"timeline,omitempty"`
	// Knees holds one row, the measured machine's. Another machine's
	// knee needs that machine's own run (bwbench -experiment mrc).
	Knees     []MRCKnee `json:"knees"`
	MeasureNS int64     `json:"measure_ns"`
}

// mrcTimelineEpochs is the wire aggregation of the phase timeline.
const mrcTimelineEpochs = 32

// buildMRC converts the recorder's histograms into the wire result.
func buildMRC(spec machine.Spec, table *ir.SiteTable, h *sim.Hierarchy) *MRCResult {
	rec := h.MRC()
	res := &MRCResult{
		Machine:  spec.Name,
		Flops:    h.Flops,
		Accesses: rec.Accesses(),
	}
	siteArray := func(id uint32) string {
		if meta, ok := table.Lookup(ir.SiteID(id)); ok {
			return meta.Array
		}
		return UnattributedName
	}
	for i := 0; i < rec.Levels(); i++ {
		cfg := rec.LevelConfig(i)
		ls := int64(cfg.LineSize)
		sets := rec.Sets(i)
		samples := sampleAssocs(rec.MaxAssoc(i), int64(cfg.Assoc))
		lv := MRCLevel{
			Name:          cfg.Name,
			LineSize:      cfg.LineSize,
			Sets:          sets,
			Assoc:         cfg.Assoc,
			CapacityBytes: int64(cfg.Size),
			MatchesFixed:  rec.Eval(i, int64(cfg.Assoc)) == h.LevelStats(i),
		}
		for _, a := range samples {
			lv.Points = append(lv.Points, mrcPoint(rec.Eval(i, a), a, sets, ls))
		}
		st := rec.Eval(i, int64(cfg.Assoc))
		lv.Accesses = st.Reads + st.Writes
		// Per-array curves and per-site configured-capacity rows.
		byArray := map[string][]uint32{}
		for _, id := range rec.Sites(i) {
			arr := siteArray(id)
			byArray[arr] = append(byArray[arr], id)
			ss := rec.EvalSite(i, id, int64(cfg.Assoc))
			row := MRCSite{
				Site:         id,
				Array:        arr,
				Misses:       ss.Misses(),
				Writebacks:   ss.Writebacks,
				TrafficBytes: ss.Traffic(),
			}
			if meta, ok := table.Lookup(ir.SiteID(id)); ok {
				row.Ref, row.Nest = meta.Ref, meta.Nest
			}
			lv.Sites = append(lv.Sites, row)
		}
		names := make([]string, 0, len(byArray))
		for arr := range byArray {
			names = append(names, arr)
		}
		sort.Strings(names)
		for _, arr := range names {
			ac := MRCArray{Array: arr}
			for _, a := range samples {
				var sum sim.Stats
				for _, id := range byArray[arr] {
					s := rec.EvalSite(i, id, a)
					sum.Reads += s.Reads
					sum.Writes += s.Writes
					sum.ReadMisses += s.ReadMisses
					sum.WriteMisses += s.WriteMisses
					sum.Writebacks += s.Writebacks
					sum.BytesIn += s.BytesIn
					sum.BytesOut += s.BytesOut
				}
				ac.Points = append(ac.Points, mrcPoint(sum, a, sets, ls))
			}
			lv.Arrays = append(lv.Arrays, ac)
		}
		res.Levels = append(res.Levels, lv)
	}
	// Phase timeline, aggregated for the wire.
	memLS := rec.MemLineSize()
	for _, ep := range rec.Epochs(mrcTimelineEpochs) {
		we := MRCEpoch{
			Index:     ep.Index,
			StartStep: ep.StartStep,
			Steps:     ep.Steps,
			ProcBytes: ep.ProcBytes,
			MemBytes:  ep.MemBytes,
			Flops:     ep.Flops,
			WSBytes:   ep.WSLines * memLS,
			NewBytes:  ep.NewLines * memLS,
		}
		for id, b := range ep.MemBySite {
			if we.ArrayMemBytes == nil {
				we.ArrayMemBytes = make(map[string]int64)
			}
			we.ArrayMemBytes[siteArray(id)] += b
		}
		res.Timeline = append(res.Timeline, we)
	}
	// The capacity knee against the measured machine's own memory
	// balance, on its own curve.
	bal := spec.Balance()
	res.Knees = append(res.Knees, kneeFor(rec, h.Flops, spec.Name, bal[len(bal)-1]))
	return res
}

func mrcPoint(st sim.Stats, assoc, sets, ls int64) MRCPoint {
	p := MRCPoint{
		CapacityBytes: assoc * sets * ls,
		Misses:        st.Misses(),
		ReadMisses:    st.ReadMisses,
		WriteMisses:   st.WriteMisses,
		Writebacks:    st.Writebacks,
		TrafficBytes:  st.Traffic(),
	}
	if n := st.Reads + st.Writes; n > 0 {
		p.MissRatio = float64(st.Misses()) / float64(n)
	}
	return p
}

// sampleAssocs picks the associativities the wire curve reports:
// every small capacity, the configured point and its neighbors, a
// geometric ladder through the middle, and the compulsory plateau.
// The curve is exact at each sample; sampling only limits resolution,
// never correctness.
func sampleAssocs(maxA, configured int64) []int64 {
	plateau := maxA + 1
	if configured > plateau {
		// The curve is flat past the compulsory plateau, but the
		// configured capacity must appear explicitly so consumers can
		// read the machine's own point (and CI can check it).
		plateau = configured
	}
	seen := map[int64]bool{}
	var out []int64
	add := func(a int64) {
		if a >= 1 && a <= plateau && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for a := int64(1); a <= 8; a++ {
		add(a)
	}
	add(configured - 1)
	add(configured)
	add(configured + 1)
	for a := int64(8); a < plateau; a = a*5/4 + 1 {
		add(a)
	}
	add(maxA)
	add(plateau)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// kneeFor finds the smallest capacity on the memory-facing level's
// curve at which traffic/flops falls to the given machine balance.
// Traffic is non-increasing in capacity (inclusion property plus
// dirty-interval merging), so a binary search over ways is exact.
func kneeFor(rec *sim.MRCRecorder, flops int64, name string, bal float64) MRCKnee {
	last := rec.Levels() - 1
	cfg := rec.LevelConfig(last)
	sets, ls := rec.Sets(last), int64(cfg.LineSize)
	plateau := rec.MaxAssoc(last) + 1
	k := MRCKnee{Machine: name, MachineBalance: bal}
	floor := rec.Eval(last, plateau).Traffic()
	if flops > 0 {
		k.FloorBF = float64(floor) / float64(flops)
	}
	demand := func(a int64) float64 {
		t := rec.Eval(last, a).Traffic()
		if flops <= 0 {
			if t == 0 {
				return 0
			}
			return float64(t) // flopless kernel: any traffic exceeds any balance
		}
		return float64(t) / float64(flops)
	}
	if demand(plateau) > bal {
		return k // even compulsory traffic oversubscribes this machine
	}
	lo, hi := int64(1), plateau // invariant: demand(hi) <= bal
	for lo < hi {
		mid := (lo + hi) / 2
		if demand(mid) <= bal {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	k.Met = true
	k.KneeBytes = hi * sets * ls
	return k
}

// Knee returns the knee entry for the named machine, or nil.
func (m *MRCResult) Knee(name string) *MRCKnee {
	for i := range m.Knees {
		if m.Knees[i].Machine == name {
			return &m.Knees[i]
		}
	}
	return nil
}

// MemLevel returns the memory-facing level's curve.
func (m *MRCResult) MemLevel() *MRCLevel {
	if len(m.Levels) == 0 {
		return nil
	}
	return &m.Levels[len(m.Levels)-1]
}
