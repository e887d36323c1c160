package machine

// Empirical machine characterization: measured, not transcribed,
// balance. Treibig & Hager's bandwidth model for loop kernels makes
// the case that per-level bandwidths obtained by *sweeping working-set
// sizes* — not datasheet numbers — are what make balance models
// predictive, and the Cache-Aware Roofline benchmark (SNIPPETS
// snippet 1) gives the recipe: run a STREAM-like kernel over a
// log-spaced range of working sets and read one bandwidth plateau per
// hierarchy level off the curve.
//
// Characterize applies that recipe to a machine model: it generates a
// triad kernel through the real pipeline (mini-language source →
// internal/ir program → compiled engine) and runs it on the machine's
// own simulator + timing model, so the measured figures exercise the
// same code path every experiment uses. Agreement between declared and
// measured balance is therefore a statement about the whole stack —
// cache geometry, the simulator's traffic accounting, and the
// bottleneck timing model — not about one constructor's constants.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/lang"
	"repro/internal/sim"
)

// SweepPoint is one working-set measurement: traversing a total
// working set of the given size yields the given processor-side
// bandwidth (bytes touched by the core per predicted second — the
// cache-aware-roofline y-axis), bound by the named resource.
type SweepPoint struct {
	WorkingSet int64   `json:"working_set_bytes"`
	Bandwidth  float64 `json:"bandwidth"`
	Bottleneck string  `json:"bottleneck"`
}

// Knee marks a drop between adjacent sweep points — a working set
// falling out of a cache level.
type Knee struct {
	WorkingSet int64   `json:"working_set_bytes"` // first point past the drop
	From       float64 `json:"from"`              // bandwidth before
	To         float64 `json:"to"`                // bandwidth after
}

// Characterization reports a machine's declared versus measured
// balance. Declared figures come straight from the Spec; measured
// figures come from the working-set sweep. MeasuredBW[c] is the
// highest bandwidth the sweep sustained on channel c; it equals the
// declared figure when some working set makes channel c the bottleneck
// (the usual case), and is an honest lower bound for channels the
// triad never saturates.
type Characterization struct {
	Machine string `json:"machine"`
	// ScaleFactor is the capacity scale the sweep ran at (see
	// scale-to-fit below); working sets are reported rescaled to the
	// full machine, and bandwidths are scale-invariant.
	ScaleFactor     int          `json:"scale_factor"`
	ChannelNames    []string     `json:"channel_names"`
	DeclaredBW      []float64    `json:"declared_bw"`
	MeasuredBW      []float64    `json:"measured_bw"`
	DeclaredBalance []float64    `json:"declared_balance"`
	MeasuredBalance []float64    `json:"measured_balance"`
	KneePoints      []Knee       `json:"knee_points"`
	Points          []SweepPoint `json:"points"`
}

// MemoryBalanceError returns the relative disagreement between the
// declared and measured memory-channel balance, e.g. 0.03 for 3%.
func (c *Characterization) MemoryBalanceError() float64 {
	last := len(c.DeclaredBalance) - 1
	d, m := c.DeclaredBalance[last], c.MeasuredBalance[last]
	if d == 0 {
		return 0
	}
	diff := (m - d) / d
	if diff < 0 {
		diff = -diff
	}
	return diff
}

// CharacterizeOptions tunes the sweep. The zero value selects
// defaults good for both tests and the service.
type CharacterizeOptions struct {
	// FitBytes caps the total simulated cache capacity: machines whose
	// caches sum to more are characterized on a power-of-two Scaled
	// copy (balance is invariant under capacity scaling — bandwidths
	// and flop rate are untouched) and working sets are rescaled back.
	// Default 512 KiB.
	FitBytes int64
	// PointsPerOctave is the sweep density (default 2).
	PointsPerOctave int
	// Passes is the number of measured steady-state traversals per
	// point (default 2); one warm-up pass always precedes them.
	Passes int
}

func (o CharacterizeOptions) withDefaults() CharacterizeOptions {
	if o.FitBytes <= 0 {
		o.FitBytes = 512 << 10
	}
	if o.PointsPerOctave <= 0 {
		o.PointsPerOctave = 2
	}
	if o.Passes <= 0 {
		o.Passes = 2
	}
	return o
}

// noFlush runs a compiled program without the end-of-run writeback
// flush. The flush cascades every dirty line to memory, which would
// charge the memory channel one full array per pass even when the
// working set is cache-resident and make the memory channel the
// apparent bottleneck at every size. Steady-state measurement wants
// only the traffic the traversals themselves cause. The probe assigns
// no attribution sites, so every access reaches the hierarchy as site 0.
type noFlush struct{ *sim.Hierarchy }

func (noFlush) Flush() {}

// triadProgram builds the STREAM-triad probe a[i] = b[i] + q*c[i] over
// arrays of n elements. Each array is padded by 16 elements so the
// three bases do not land at power-of-two offsets, which on a
// direct-mapped cache (Exemplar) would alias all three streams onto
// the same sets.
func triadProgram(n int) (*exec.Compiled, error) {
	src := fmt.Sprintf(`program triad
const N = %d
array a[N + 16]
array b[N + 16]
array c[N + 16]
scalar q = 1.5
loop L {
  for i = 0, N - 1 {
    a[i] = b[i] + q * c[i]
  }
}
`, n)
	p, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return exec.Compile(p)
}

const triadBytesPerElem = 3 * 8 // a, b, c touched once per element

// Characterize measures a machine model's per-channel bandwidth and
// balance with a working-set sweep of the triad kernel, from a quarter
// of the smallest cache to four times the total capacity, roughly
// PointsPerOctave points per doubling. Per point: one warm-up
// traversal populates the caches, counters are reset, and Passes
// steady-state traversals are measured through the machine's timing
// model. Cache-less specs cannot be simulated and return an error.
func Characterize(ctx context.Context, spec Spec, opts CharacterizeOptions) (*Characterization, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(spec.Caches) == 0 {
		return nil, fmt.Errorf("machine %s: cannot characterize a cache-less spec (nothing to simulate)", spec.Name)
	}
	opts = opts.withDefaults()

	// Scale-to-fit: characterize big machines on a shrunken copy.
	name := spec.Name
	factor := 1
	for totalCapacity(spec) > opts.FitBytes && factor < 1<<20 {
		factor *= 2
		spec = Scaled(spec, 2)
	}

	c := &Characterization{
		Machine:         name,
		ScaleFactor:     factor,
		ChannelNames:    spec.ChannelNames(),
		DeclaredBW:      append([]float64(nil), spec.ChannelBW...),
		DeclaredBalance: spec.Balance(),
		MeasuredBW:      make([]float64, len(spec.ChannelBW)),
	}

	smallest := spec.Caches[0].Size
	for _, cc := range spec.Caches {
		if cc.Size < smallest {
			smallest = cc.Size
		}
	}
	lo := int64(smallest) / 4
	if lo < 8*triadBytesPerElem {
		lo = 8 * triadBytesPerElem
	}
	hi := 4 * totalCapacity(spec)

	// Geometric sweep, PointsPerOctave points per doubling.
	lastN := -1
	for ws := float64(lo); ws <= float64(hi)*1.0001; ws *= pow2(1.0 / float64(opts.PointsPerOctave)) {
		n := int(ws) / triadBytesPerElem
		if n <= lastN {
			continue
		}
		lastN = n
		pt, chBW, err := characterizePoint(ctx, spec, n, opts.Passes)
		if err != nil {
			return nil, err
		}
		pt.WorkingSet *= int64(factor)
		c.Points = append(c.Points, pt)
		for i, bw := range chBW {
			if bw > c.MeasuredBW[i] {
				c.MeasuredBW[i] = bw
			}
		}
	}

	c.MeasuredBalance = make([]float64, len(c.MeasuredBW))
	for i, bw := range c.MeasuredBW {
		c.MeasuredBalance[i] = bw / spec.FlopRate
	}
	// Knees: >15% bandwidth drops between adjacent points mark a
	// working set falling out of a cache level.
	for i := 1; i < len(c.Points); i++ {
		prev, cur := c.Points[i-1], c.Points[i]
		if cur.Bandwidth < prev.Bandwidth*0.85 {
			c.KneePoints = append(c.KneePoints, Knee{
				WorkingSet: cur.WorkingSet,
				From:       prev.Bandwidth,
				To:         cur.Bandwidth,
			})
		}
	}
	return c, nil
}

// characterizePoint measures one working-set size: point bandwidth
// (processor-side bytes per second) plus the achieved bandwidth of
// every channel at this size.
func characterizePoint(ctx context.Context, spec Spec, n, passes int) (SweepPoint, []float64, error) {
	cp, err := triadProgram(n)
	if err != nil {
		return SweepPoint{}, nil, err
	}
	h := spec.NewHierarchy()
	m := noFlush{h}
	// Warm-up: one cold traversal fills the caches. The compiled
	// engine allocates arrays at the same base addresses every run, so
	// repeated runs on one hierarchy revisit warm lines.
	if _, err := cp.RunCtx(ctx, m, exec.Limits{}); err != nil {
		return SweepPoint{}, nil, err
	}
	h.ResetCounters()
	for p := 0; p < passes; p++ {
		if _, err := cp.RunCtx(ctx, m, exec.Limits{}); err != nil {
			return SweepPoint{}, nil, err
		}
	}
	last := len(spec.Caches) - 1
	t, err := spec.Predict(h.ChannelBytes(), h.Flops, h.LevelStats(last).Misses())
	if err != nil {
		return SweepPoint{}, nil, err
	}
	chBytes := h.ChannelBytes()
	chBW := make([]float64, len(chBytes))
	if t.Total > 0 {
		for i, b := range chBytes {
			chBW[i] = float64(b) / t.Total
		}
	}
	pt := SweepPoint{
		WorkingSet: int64(n) * triadBytesPerElem,
		Bottleneck: t.Bottleneck,
	}
	if t.Total > 0 {
		pt.Bandwidth = float64(chBytes[0]) / t.Total
	}
	return pt, chBW, nil
}

func totalCapacity(s Spec) int64 {
	var sum int64
	for _, c := range s.Caches {
		sum += int64(c.Size)
	}
	return sum
}

func pow2(x float64) float64 { return math.Pow(2, x) }
