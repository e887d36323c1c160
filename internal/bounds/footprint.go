package bounds

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/ir"
)

// Footprint is the compulsory-traffic census of one program run:
// distinct elements touched, read before written (live-in) and ever
// written (live-out), in elements of ElemSize bytes.
type Footprint struct {
	// TouchedElems is the number of distinct array elements accessed.
	TouchedElems int64 `json:"touched_elems"`
	// LiveInElems is the number of distinct elements whose first access
	// is a read: their initial value lives in slow memory and must cross
	// the channel at least once.
	LiveInElems int64 `json:"live_in_elems"`
	// LiveOutElems is the number of distinct elements the program
	// writes: each holds a final value that must reach slow memory.
	LiveOutElems int64 `json:"live_out_elems"`
	// Arrays breaks the census down per array, sorted by name.
	Arrays []ArrayFootprint `json:"arrays,omitempty"`
}

// ArrayFootprint is the per-array slice of the census.
type ArrayFootprint struct {
	Array   string `json:"array"`
	Touched int64  `json:"touched"`
	LiveIn  int64  `json:"live_in"`
	LiveOut int64  `json:"live_out"`
}

// BoundBytes returns the array's own compulsory floor: 8 bytes per
// live-in and live-out element, the per-array decomposition of
// Footprint.Bound. Summed over Arrays it reproduces the whole-program
// compulsory bound, so per-array optimality gaps (measured per-array
// traffic over this floor) decompose the program gap the same way the
// attribution profiler decomposes traffic.
func (a ArrayFootprint) BoundBytes() int64 {
	return (a.LiveIn + a.LiveOut) * ElemSize
}

// Bound returns the compulsory-traffic lower bound: 8 bytes per live-in
// element in, 8 per live-out element out. Element granularity
// undercounts line-granularity measured traffic (a line transfer moves
// whole lines), which is exactly the direction soundness needs.
func (f *Footprint) Bound() Bound {
	return Bound{
		Bytes: (f.LiveInElems + f.LiveOutElems) * ElemSize,
		Kind:  KindCompulsory,
		Assumptions: []string{
			"initial array values reside in slow memory (live-in elements each cross the channel at least once)",
			"written elements reach slow memory by program end (dirty lines flush; write-through forwards stores)",
			"element granularity (8 B) — never above the line-granularity traffic the simulator measures",
		},
	}
}

// FootprintRecorder implements exec.Machine, recording per-element
// first-access direction instead of simulating caches. Element state is
// a dense byte array over the engines' address space (exec.Layout),
// indexed by addr/8.
// It observes any compiled run of its program — alone, or next to the
// cache hierarchies of a balance measurement — and Footprint reads the
// census once the run has finished.
type FootprintRecorder struct {
	state  []uint8 // per element: seen/written bits
	bounds []arrayRange
	fp     Footprint
	per    []ArrayFootprint
}

type arrayRange struct {
	lo, hi int64 // [lo,hi) byte addresses
	idx    int   // index into per
}

const (
	fpSeen    uint8 = 1 << 0
	fpWritten uint8 = 1 << 1
)

// maxFootprintBytes caps the dense state allocation (1 byte per
// element, so 2 GiB of simulated arrays -> 256 MiB of state).
const maxFootprintBytes = int64(2) << 30

// NewFootprintRecorder lays out the arrays exactly as the engines do
// (exec.Layout), so per-array attribution of the addresses they emit is
// exact; the totals are layout-independent.
func NewFootprintRecorder(p *ir.Program) (*FootprintRecorder, error) {
	bases, end := exec.Layout(p.Arrays)
	if end > maxFootprintBytes {
		return nil, fmt.Errorf("bounds: program arrays span %d bytes, above the %d footprint cap", end, maxFootprintBytes)
	}
	m := &FootprintRecorder{state: make([]uint8, end/ElemSize+1)}
	for i, a := range p.Arrays {
		m.bounds = append(m.bounds, arrayRange{lo: bases[i], hi: bases[i] + a.Bytes(), idx: i})
		m.per = append(m.per, ArrayFootprint{Array: a.Name})
	}
	return m, nil
}

func (m *FootprintRecorder) access(addr int64, size int, write bool) {
	for off := int64(0); off < int64(size); off += ElemSize {
		i := (addr + off) / ElemSize
		if i < 0 || i >= int64(len(m.state)) {
			continue // defensive: engine addresses outside the layout
		}
		s := m.state[i]
		ai := -1
		if s&fpSeen == 0 {
			m.state[i] |= fpSeen
			m.fp.TouchedElems++
			ai = m.arrayAt(addr + off)
			if ai >= 0 {
				m.per[ai].Touched++
			}
			if !write {
				m.fp.LiveInElems++
				if ai >= 0 {
					m.per[ai].LiveIn++
				}
			}
		}
		if write && s&fpWritten == 0 {
			m.state[i] |= fpWritten
			m.fp.LiveOutElems++
			if ai < 0 {
				ai = m.arrayAt(addr + off)
			}
			if ai >= 0 {
				m.per[ai].LiveOut++
			}
		}
	}
}

// arrayAt maps a byte address to its array's index, or -1 for padding.
func (m *FootprintRecorder) arrayAt(addr int64) int {
	n := sort.Search(len(m.bounds), func(i int) bool { return m.bounds[i].hi > addr })
	if n < len(m.bounds) && addr >= m.bounds[n].lo {
		return m.bounds[n].idx
	}
	return -1
}

var _ exec.Machine = (*FootprintRecorder)(nil)

// LoadSite and StoreSite record one access; the census is per element,
// so the site is ignored.
func (m *FootprintRecorder) LoadSite(addr int64, size int, _ uint32)  { m.access(addr, size, false) }
func (m *FootprintRecorder) StoreSite(addr int64, size int, _ uint32) { m.access(addr, size, true) }
func (m *FootprintRecorder) AddFlops(n int64)                         {}
func (m *FootprintRecorder) Flush()                                   {}

// Footprint returns the census of the accesses recorded so far, arrays
// that were never touched omitted.
func (m *FootprintRecorder) Footprint() *Footprint {
	fp := m.fp
	for _, a := range m.per {
		if a.Touched > 0 {
			fp.Arrays = append(fp.Arrays, a)
		}
	}
	sort.Slice(fp.Arrays, func(i, j int) bool { return fp.Arrays[i].Array < fp.Arrays[j].Array })
	return &fp
}

// ComputeFootprint runs p once on the footprint recorder under the
// compiled engine. A zero lim.MaxSteps applies DefaultMaxSteps so a
// hostile program cannot wedge the caller.
func ComputeFootprint(ctx context.Context, p *ir.Program, lim exec.Limits) (*Footprint, error) {
	if lim.MaxSteps == 0 {
		lim.MaxSteps = DefaultMaxSteps
	}
	m, err := NewFootprintRecorder(p)
	if err != nil {
		return nil, err
	}
	cp, err := exec.Compile(p)
	if err != nil {
		return nil, err
	}
	if _, err := cp.RunCtx(ctx, m, lim); err != nil {
		return nil, fmt.Errorf("bounds: footprint run: %w", err)
	}
	return m.Footprint(), nil
}
