// Package balance implements the paper's bandwidth-based performance
// model (Section 2.2): program balance, machine balance, demand/supply
// ratios, the CPU-utilization bound, predicted execution time and
// effective memory bandwidth.
//
// Program balance is the bytes of data transfer per floating-point
// operation at every level of the memory hierarchy, measured by running
// the program on the machine's cache simulator (the software stand-in
// for the paper's hardware counters). Machine balance is the bytes per
// flop the machine can supply at peak. Their ratio bounds CPU
// utilization: a program demanding r times the machine's memory
// bandwidth can use at most 1/r of the CPU.
package balance

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Report is the balance analysis of one program on one machine.
type Report struct {
	Program string
	Machine string

	ChannelNames []string // processor-side first
	ChannelBytes []int64
	Flops        int64

	ProgramBalance []float64 // bytes per flop, per channel
	MachineBalance []float64
	Ratios         []float64 // demand / supply per channel

	// MaxRatio is the largest demand/supply ratio and Bottleneck the
	// channel it occurs on ("CPU" when no channel is oversubscribed).
	MaxRatio   float64
	Bottleneck string
	// CPUUtilizationBound = min(1, 1/MaxRatio): the paper's bound on
	// achievable CPU utilization.
	CPUUtilizationBound float64

	// Time is the predicted execution-time breakdown and EffectiveBW
	// the memory bytes per second it implies.
	Time        machine.Time
	MemoryBytes int64
	EffectiveBW float64

	// LevelNames and LevelStats carry the per-level cache counters of
	// the simulated run (hits, misses, writebacks, channel bytes),
	// processor-side first — the raw event counts behind the balance
	// figures.
	LevelNames []string
	LevelStats []sim.Stats

	// Bound, when non-nil, is the data-movement lower bound at this
	// machine's fast-memory capacity and OptimalityGap the ratio
	// MemoryBytes/Bound.Best.Bytes (0 when no bound information).
	// Populated when Options.Bounds asks for it.
	Bound         *bounds.Analysis
	OptimalityGap float64

	// Attribution, when non-nil, breaks the traffic down by reference
	// site, loop nest and array. Populated by Options.Profile.
	Attribution *Attribution

	// MRC, when non-nil, carries the one-pass reuse-distance analysis:
	// exact miss-ratio curves per level, per-array curves, the phase
	// timeline, and the capacity knee against the measured machine's
	// balance. Populated by Options.MRC.
	MRC *MRCResult

	// Replay, when non-nil, contrasts LRU with Belady's optimal
	// replacement on the last cache level. Populated by Options.Belady.
	Replay *Replay

	// Result carries the program's computed values for equivalence
	// checking: prints, scalars and flops. The compiled run leaves no
	// arrays in it (exec.Result.Array is interpreter-only).
	Result *exec.Result
}

// Gap returns the optimality gap, or 0 when no bound was attached.
func (r *Report) Gap() float64 { return r.OptimalityGap }

// Options selects what one measurement observes beyond the balance
// report. The zero value is the plain measurement.
type Options struct {
	// Limits bounds the run. With MRC set, a zero MaxSteps is defaulted
	// to bounds.DefaultMaxSteps so a pathological kernel cannot wedge a
	// service worker even when the caller forgot a budget.
	Limits exec.Limits
	// Bounds attaches the lower bound at every machine's fast-memory
	// capacity, the tighter of the compulsory floor and the pebbling
	// bound, and the optimality gap against it.
	Bounds bool
	// Profile attaches the per-site, per-nest and per-array traffic
	// Attribution; with Bounds set, every array carries its own
	// compulsory floor and gap.
	Profile bool
	// MRC attaches the one-pass reuse-distance analysis.
	MRC bool
	// Belady attaches the LRU vs. optimal-replacement Replay.
	Belady bool
}

// Measure runs the program once and returns its balance report on every
// machine in specs, in order. Profile, MRC and Belady apply to specs[0],
// the primary machine; Bounds applies to all of them. The program is
// compiled once and executed once. A run with a single plain hierarchy
// hands it straight to the engine; otherwise a tee fans the access
// stream out to every observer: each machine's hierarchy, the footprint
// recorder behind the bounds, and the Belady trace recorder. Without
// Profile or MRC the caller's program is run as is; with either, sites
// are assigned on a private clone, so a shared program is never
// mutated.
//
// Cancellation and the step budget are threaded into the run: it aborts
// with an error wrapping exec.ErrCanceled when ctx is done, or
// exec.ErrStepBudget when the program exceeds Limits.MaxSteps loop
// iterations. Services use them to keep a hostile or huge program from
// wedging a worker.
func Measure(ctx context.Context, p *ir.Program, specs []machine.Spec, opts Options) ([]*Report, error) {
	if len(specs) == 0 {
		return nil, errors.New("balance: no machine to measure on")
	}
	names := make([]string, len(specs))
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		names[i] = spec.Name
	}
	start := time.Now()
	ctx, span := trace.StartSpan(ctx, "balance.measure",
		trace.String("program", p.Name), trace.String("machine", strings.Join(names, ",")))
	reps, err := measure(ctx, span, p, specs, opts)
	if err != nil {
		span.End(trace.String("error", err.Error()))
		return nil, err
	}
	if opts.MRC {
		reps[0].MRC.MeasureNS = time.Since(start).Nanoseconds()
	}
	span.End(trace.String("bottleneck", reps[0].Bottleneck), trace.Int("memory_bytes", reps[0].MemoryBytes))
	return reps, nil
}

// MeasureCtx, MeasureProfiled and MeasureMRC are single-machine forms of
// Measure for callers that pass a measurement around as a
// func(ctx, p, spec, lim) value: the plain measurement, attribution
// with the full bound, and the reuse-distance analysis.
func MeasureCtx(ctx context.Context, p *ir.Program, spec machine.Spec, lim exec.Limits) (*Report, error) {
	return primary(Measure(ctx, p, []machine.Spec{spec}, Options{Limits: lim}))
}

func MeasureProfiled(ctx context.Context, p *ir.Program, spec machine.Spec, lim exec.Limits) (*Report, error) {
	return primary(Measure(ctx, p, []machine.Spec{spec}, Options{Limits: lim, Bounds: true, Profile: true}))
}

func MeasureMRC(ctx context.Context, p *ir.Program, spec machine.Spec, lim exec.Limits) (*Report, error) {
	return primary(Measure(ctx, p, []machine.Spec{spec}, Options{Limits: lim, MRC: true}))
}

func primary(reps []*Report, err error) (*Report, error) {
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// measure is Measure's body: set up the observers, run, assemble the
// reports.
func measure(ctx context.Context, span *trace.Span, p *ir.Program, specs []machine.Spec, opts Options) ([]*Report, error) {
	lim := opts.Limits
	if opts.MRC && lim.MaxSteps == 0 {
		lim.MaxSteps = bounds.DefaultMaxSteps
	}
	var table *ir.SiteTable
	if opts.Profile || opts.MRC {
		p = p.Clone()
		table = ir.AssignSites(p)
	}
	hs := make([]*sim.Hierarchy, len(specs))
	obs := make(tee, 0, len(specs)+2)
	for i, spec := range specs {
		hs[i] = spec.NewHierarchy()
		obs = append(obs, hs[i])
	}
	if opts.Profile {
		hs[0].EnableProfiling()
	}
	if opts.MRC {
		if err := hs[0].EnableMRC(); err != nil {
			return nil, err
		}
	}
	var fp *bounds.FootprintRecorder
	if opts.Bounds {
		var err error
		if fp, err = bounds.NewFootprintRecorder(p); err != nil {
			return nil, fmt.Errorf("balance: lower bound for %s: %w", p.Name, err)
		}
		obs = append(obs, fp)
	}
	var rec *sim.Recorder
	if opts.Belady {
		var err error
		if rec, err = sim.NewRecorder(replayConfig(specs[0])); err != nil {
			return nil, err
		}
		obs = append(obs, rec)
	}
	var m exec.Machine = hs[0]
	if len(obs) > 1 {
		m = obs
	}

	// The closure-compiled engine is several times faster than the tree
	// walker and differentially tested against it (internal/exec).
	cp, err := exec.Compile(p)
	if err != nil {
		return nil, err
	}
	res, err := cp.RunCtx(ctx, m, lim)
	if err != nil {
		return nil, err
	}
	// Attribute the simulated cost per hierarchy level: the misses at
	// each level are exactly the traffic the balance model charges to
	// the channel below it.
	if span != nil {
		h := hs[0]
		attrs := []trace.Attr{trace.Int("flops", h.Flops)}
		for i := 0; i < h.Levels(); i++ {
			st := h.LevelStats(i)
			name := h.LevelConfig(i).Name
			attrs = append(attrs,
				trace.Int("misses."+name, st.Misses()),
				trace.Int("writebacks."+name, st.Writebacks))
		}
		span.SetAttrs(attrs...)
	}

	reps := make([]*Report, len(specs))
	for i, spec := range specs {
		if reps[i], err = newReport(p, spec, hs[i], res); err != nil {
			return nil, err
		}
	}
	if fp != nil {
		// One footprint and one pebbling structure serve every
		// machine's capacity.
		foot, pb := fp.Footprint(), bounds.ComputePebble(p)
		for i, r := range reps {
			r.Bound = bounds.Assemble(p.Name, bounds.FastCapacity(specs[i]), foot, pb)
			r.OptimalityGap = bounds.Gap(r.MemoryBytes, r.Bound.Best)
		}
	}
	if opts.Profile {
		reps[0].Attribution = buildAttribution(p, table, hs[0])
		if fp != nil {
			reps[0].Attribution.attachBounds(reps[0].Bound.Footprint)
		}
	}
	if opts.MRC {
		reps[0].MRC = buildMRC(specs[0], table, hs[0])
	}
	if rec != nil {
		if reps[0].Replay, err = replay(ctx, replayConfig(specs[0]).Name, rec); err != nil {
			return nil, err
		}
	}
	return reps, nil
}

// newReport computes one machine's balance report from its hierarchy
// after the run.
func newReport(p *ir.Program, spec machine.Spec, h *sim.Hierarchy, res *exec.Result) (*Report, error) {
	channels := h.ChannelBytes()
	memLines := h.LevelStats(h.Levels() - 1).Misses()
	t, err := spec.Predict(channels, h.Flops, memLines)
	if err != nil {
		return nil, err
	}

	r := &Report{
		Program:        p.Name,
		Machine:        spec.Name,
		ChannelNames:   spec.ChannelNames(),
		ChannelBytes:   channels,
		Flops:          h.Flops,
		MachineBalance: spec.Balance(),
		Time:           t,
		MemoryBytes:    h.MemoryBytes(),
		EffectiveBW:    machine.EffectiveBandwidth(h.MemoryBytes(), t),
		Result:         res,
	}
	for i := 0; i < h.Levels(); i++ {
		r.LevelNames = append(r.LevelNames, h.LevelConfig(i).Name)
		r.LevelStats = append(r.LevelStats, h.LevelStats(i))
	}
	r.ProgramBalance = make([]float64, len(channels))
	r.Ratios = make([]float64, len(channels))
	r.Bottleneck = "CPU"
	for i, b := range channels {
		if h.Flops > 0 {
			r.ProgramBalance[i] = float64(b) / float64(h.Flops)
		}
		r.Ratios[i] = r.ProgramBalance[i] / r.MachineBalance[i]
		if r.Ratios[i] > r.MaxRatio {
			r.MaxRatio = r.Ratios[i]
			r.Bottleneck = r.ChannelNames[i]
		}
	}
	r.CPUUtilizationBound = 1
	if r.MaxRatio > 1 {
		r.CPUUtilizationBound = 1 / r.MaxRatio
	}
	return r, nil
}

// tee fans one access stream out to several observers, so one execution
// feeds every consumer of a measurement.
type tee []exec.Machine

func (t tee) LoadSite(addr int64, size int, site uint32) {
	for _, m := range t {
		m.LoadSite(addr, size, site)
	}
}

func (t tee) StoreSite(addr int64, size int, site uint32) {
	for _, m := range t {
		m.StoreSite(addr, size, site)
	}
}

func (t tee) AddFlops(n int64) {
	for _, m := range t {
		m.AddFlops(n)
	}
}

func (t tee) Flush() {
	for _, m := range t {
		m.Flush()
	}
}

// Replay contrasts LRU with Belady's optimal replacement on the
// identical last-level access trace (Section 4.1's comparison).
type Replay struct {
	Level    string
	Accesses int
	LRU      sim.Stats
	Belady   sim.Stats
}

// replayConfig is spec's last cache level as the replay models it:
// write-back, write-allocate.
func replayConfig(spec machine.Spec) sim.CacheConfig {
	cfg := spec.Caches[len(spec.Caches)-1]
	cfg.Policy = sim.WriteBack
	cfg.NoWriteAllocate = false
	return cfg
}

// replay runs the recorded trace of the named level under both
// policies.
func replay(ctx context.Context, level string, rec *sim.Recorder) (*Replay, error) {
	t := rec.Trace()
	lru, err := sim.ReplayLRUCtx(ctx, t)
	if err != nil {
		return nil, err
	}
	opt, err := sim.ReplayBeladyCtx(ctx, t)
	if err != nil {
		return nil, err
	}
	return &Replay{Level: level, Accesses: t.Len(), LRU: lru, Belady: opt}, nil
}

// Speedup returns how much faster the "after" run is predicted to be.
func Speedup(before, after *Report) float64 {
	if after.Time.Total == 0 {
		return 0
	}
	return before.Time.Total / after.Time.Total
}

// String renders the report as a small table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: %d flops\n", r.Program, r.Machine, r.Flops)
	for i, name := range r.ChannelNames {
		fmt.Fprintf(&b, "  %-8s %12d B  balance %6.2f B/flop  machine %5.2f  ratio %5.2f\n",
			name, r.ChannelBytes[i], r.ProgramBalance[i], r.MachineBalance[i], r.Ratios[i])
	}
	fmt.Fprintf(&b, "  bottleneck %s, max ratio %.2f, CPU utilization bound %.1f%%\n",
		r.Bottleneck, r.MaxRatio, 100*r.CPUUtilizationBound)
	fmt.Fprintf(&b, "  predicted time %.6fs, effective bandwidth %.1f MB/s\n",
		r.Time.Total, r.EffectiveBW/machine.MB)
	if r.Bound != nil && r.Bound.Best.Bytes > 0 {
		fmt.Fprintf(&b, "  traffic lower bound %d B (%s), optimality gap %.2fx\n",
			r.Bound.Best.Bytes, r.Bound.Best.Kind, r.OptimalityGap)
	}
	return b.String()
}
