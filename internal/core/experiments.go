package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/balance"
	"repro/internal/fusion"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/transform"
)

// Config sets the workload sizes of the experiment suite. Default()
// approximates the paper's regime (arrays several times larger than
// the caches); Quick() shrinks everything for unit tests, pairing the
// smaller footprints with a cache-scaled machine so every workload
// stays out-of-cache.
type Config struct {
	// MachineScale divides the modelled caches (see machine.Scaled) for
	// the application experiments (Figures 1, 2, 6, SP utilization);
	// 1 means the real machines.
	MachineScale int
	// StreamScale likewise scales the machines for the streaming
	// experiments (Section 2.1, Figure 3, Figure 8, the ablation and
	// the conflict study), whose arrays must not fit in cache.
	StreamScale int

	StreamN     int // Section 2.1 and Figure 3 array length
	ConvN       int
	DmxpyN      int
	MMN         int // matrix order for both mm variants
	MMBlock     int
	FFTN        int // must be a power of two
	SPN         int
	SweepN      int
	SweepAngles int
	Fig6N       int
	Fig8N       int
}

// Default returns paper-regime sizes against the real machine models.
// The matrix kernels use a moderately scaled machine (see MMScale in
// the row notes) because a full 2000-order out-of-cache matrix multiply
// is needlessly slow to simulate; balance depends only on the
// footprint-to-capacity ratio.
func Default() Config {
	return Config{
		MachineScale: 16,
		StreamScale:  1,
		StreamN:      1_000_000,
		ConvN:        400_000,
		DmxpyN:       600,
		MMN:          256,
		MMBlock:      16,
		FFTN:         1 << 15,
		SPN:          192,
		SweepN:       192,
		SweepAngles:  4,
		Fig6N:        384,
		Fig8N:        1_000_000,
	}
}

// Quick returns test-scale sizes with an aggressively scaled machine.
func Quick() Config {
	return Config{
		MachineScale: 64,
		StreamScale:  256,
		StreamN:      20_000,
		ConvN:        20_000,
		DmxpyN:       112,
		MMN:          128,
		MMBlock:      16,
		FFTN:         1 << 13,
		SPN:          96,
		SweepN:       96,
		SweepAngles:  2,
		Fig6N:        64,
		Fig8N:        20_000,
	}
}

func (c Config) origin() machine.Spec {
	if c.MachineScale <= 1 {
		return machine.Origin2000()
	}
	return machine.Scaled(machine.Origin2000(), c.MachineScale)
}

func (c Config) exemplar() machine.Spec {
	if c.MachineScale <= 1 {
		return machine.Exemplar()
	}
	return machine.Scaled(machine.Exemplar(), c.MachineScale)
}

// machines returns every registered machine model, scaled by
// MachineScale — experiments that compare across the registry (the
// optimality-gap study) iterate this instead of naming machines.
func (c Config) machines() []machine.Spec {
	var out []machine.Spec
	for _, e := range machine.Entries() {
		spec := e.Spec
		if c.MachineScale > 1 {
			spec = machine.Scaled(spec, c.MachineScale)
		}
		out = append(out, spec)
	}
	return out
}

func (c Config) streamOrigin() machine.Spec {
	if c.StreamScale <= 1 {
		return machine.Origin2000()
	}
	return machine.Scaled(machine.Origin2000(), c.StreamScale)
}

func (c Config) streamExemplar() machine.Spec {
	if c.StreamScale <= 1 {
		return machine.Exemplar()
	}
	return machine.Scaled(machine.Exemplar(), c.StreamScale)
}

// Sec21 reproduces the Section 2.1 experiment: the read-modify-write
// loop against the read-only reduction, on both machines. The paper
// measured 0.104 s vs 0.054 s on Origin2000 and 0.055 s vs 0.036 s on
// Exemplar; the reproduced shape is the ~2x ratio from writeback
// traffic.
func Sec21(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title:   "Section 2.1: a write loop pays twice the memory traffic of a read loop",
		Headers: []string{"machine", "loop", "mem traffic", "predicted time", "ratio vs read"},
	}
	for _, spec := range []machine.Spec{cfg.streamOrigin(), cfg.streamExemplar()} {
		w, err := Analyze(kernels.Sec21Write(cfg.StreamN), spec)
		if err != nil {
			return nil, err
		}
		r, err := Analyze(kernels.Sec21Read(cfg.StreamN), spec)
		if err != nil {
			return nil, err
		}
		t.AddRow(spec.Name, "A[i]=A[i]+0.4 (write)", report.Bytes(w.MemoryBytes),
			report.Seconds(w.Time.Total), report.F(w.Time.Total/r.Time.Total, 2))
		t.AddRow(spec.Name, "sum+=A[i] (read)", report.Bytes(r.MemoryBytes),
			report.Seconds(r.Time.Total), "1.00")
	}
	t.AddNote("paper measured 0.104s vs 0.054s (Origin2000) and 0.055s vs 0.036s (Exemplar): ratio ~1.9x")
	return t, nil
}

// fig1Apps builds the Figure 1 application set at the configured sizes.
func fig1Apps(cfg Config) ([]string, []*ir.Program, error) {
	names := []string{"convolution", "dmxpy", "mm (-O2 jki)", "mm (-O3 blocked)", "FFT", "NAS/SP", "Sweep3D"}
	fft, err := kernels.FFT(cfg.FFTN)
	if err != nil {
		return nil, nil, err
	}
	blocked, err := kernels.MatmulBlocked(cfg.MMN, cfg.MMBlock)
	if err != nil {
		return nil, nil, err
	}
	progs := []*ir.Program{
		kernels.Convolution(cfg.ConvN),
		kernels.Dmxpy(cfg.DmxpyN),
		kernels.MatmulJKI(cfg.MMN),
		blocked,
		fft,
		kernels.SP(cfg.SPN),
		kernels.Sweep3D(cfg.SweepN, cfg.SweepAngles),
	}
	return names, progs, nil
}

// Fig1 reproduces Figure 1: program balance (bytes per flop at the
// L1-Reg, L2-L1 and Mem-L2 channels) of the application set, plus the
// machine balance row of the Origin2000.
func Fig1(cfg Config) (*report.Table, error) {
	spec := cfg.origin()
	t := &report.Table{
		Title:   "Figure 1: program and machine balance (bytes per flop)",
		Headers: []string{"program/machine", "L1-Reg", "L2-L1", "Mem-L2"},
	}
	names, progs, err := fig1Apps(cfg)
	if err != nil {
		return nil, err
	}
	for i, p := range progs {
		r, err := Analyze(p, spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		t.AddRow(names[i], report.F(r.ProgramBalance[0], 2), report.F(r.ProgramBalance[1], 2),
			report.F(r.ProgramBalance[2], 2))
	}
	mb := spec.Balance()
	t.AddRow(spec.Name, report.F(mb[0], 1), report.F(mb[1], 1), report.F(mb[2], 1))
	t.AddNote("paper: conv 6.4/5.1/5.2, dmxpy 8.3/8.3/8.4, mm -O2 24/8.2/5.9, mm -O3 8.08/0.97/0.04, FFT 8.3/3.0/2.7, SP 10.8/6.4/4.9, Sweep3D 15/9.1/7.8, machine 4/4/0.8")
	return t, nil
}

// Fig2 reproduces Figure 2: demand-to-supply ratios per channel and
// the implied CPU-utilization bound (the paper's "over 80% of CPU
// capacity left unused").
func Fig2(cfg Config) (*report.Table, error) {
	spec := cfg.origin()
	t := &report.Table{
		Title:   "Figure 2: ratios of bandwidth demand to supply on Origin2000",
		Headers: []string{"program", "L1-Reg", "L2-L1", "Mem-L2", "CPU bound"},
	}
	names, progs, err := fig1Apps(cfg)
	if err != nil {
		return nil, err
	}
	for i, p := range progs {
		if names[i] == "mm (-O3 blocked)" {
			continue // Figure 2 lists only the unblocked mm
		}
		r, err := Analyze(p, spec)
		if err != nil {
			return nil, err
		}
		t.AddRow(names[i], report.F(r.Ratios[0], 1), report.F(r.Ratios[1], 1),
			report.F(r.Ratios[2], 1), fmt.Sprintf("%.0f%%", 100*r.CPUUtilizationBound))
	}
	t.AddNote("paper: memory ratios 3.4-10.5; CPU utilization bounded at 9.5%% (dmxpy) to 29%% (FFT)")
	return t, nil
}

// Fig3 reproduces Figure 3: effective memory bandwidth of the
// stride-one kernels on both machines. The paper's observation: all
// kernels land within ~20% of each other — memory bandwidth is
// saturated regardless of the read/write mix.
func Fig3(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 3: effective memory bandwidth of stride-1 kernels",
		Headers: []string{"kernel", "Origin2000", "util", "Exemplar", "util"},
	}
	or, ex := cfg.streamOrigin(), cfg.streamExemplar()
	for _, name := range kernels.StrideKernelNames {
		po, err := kernels.StrideKernel(name, cfg.StreamN)
		if err != nil {
			return nil, err
		}
		ro, err := Analyze(po, or)
		if err != nil {
			return nil, err
		}
		pe, err := kernels.StrideKernel(name, cfg.StreamN)
		if err != nil {
			return nil, err
		}
		re, err := Analyze(pe, ex)
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			report.MBs(ro.EffectiveBW), fmt.Sprintf("%.0f%%", 100*ro.EffectiveBW/or.MemoryBandwidth()),
			report.MBs(re.EffectiveBW), fmt.Sprintf("%.0f%%", 100*re.EffectiveBW/ex.MemoryBandwidth()))
	}
	t.AddNote("paper: Origin2000 kernels within 20%% of each other; Exemplar 417-551 MB/s")
	return t, nil
}

// Fig8 reproduces Figure 8: execution time of the Figure 7 workload in
// three forms — original, after fusion only, and after fusion plus
// store elimination — on both machines. The variants are derived from
// the original by the actual compiler passes.
func Fig8(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 8: effect of loop fusion and store elimination",
		Headers: []string{"machine", "variant", "mem traffic", "predicted time", "speedup"},
	}
	orig := kernels.Fig8Workload(cfg.Fig8N)
	fusedOnly, _, err := transform.OptimizeVerified(orig, transform.Config{Pipeline: "fuse"})
	if err != nil {
		return nil, err
	}
	full, _, err := Optimize(orig)
	if err != nil {
		return nil, err
	}
	specs := []machine.Spec{cfg.streamOrigin(), cfg.streamExemplar()}
	fused, err := measurePair(orig, fusedOnly, specs, balance.Options{})
	if err != nil {
		return nil, err
	}
	both, err := measurePair(orig, full, specs, balance.Options{})
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		base := fused.Before[i]
		for _, v := range []struct {
			name string
			r    *balance.Report
		}{{"original", base}, {"fusion only", fused.After[i]}, {"store elimination", both.After[i]}} {
			t.AddRow(spec.Name, v.name, report.Bytes(v.r.MemoryBytes),
				report.Seconds(v.r.Time.Total), report.F(base.Time.Total/v.r.Time.Total, 2))
		}
	}
	t.AddNote("paper: Origin2000 0.32/0.22/0.16 s, Exemplar 0.24/0.21/0.14 s — combined speedup ~2x")
	return t, nil
}

// Fig4 reproduces the Figure 4 fusion counter-example at the graph
// level: total arrays loaded under no fusion, the classical
// edge-weighted objective, the bandwidth-minimal optimum, and the
// recursive-bisection heuristic.
func Fig4() (*report.Table, error) {
	g := kernels.Figure4Graph()
	t := &report.Table{
		Title:   "Figure 4: bandwidth-minimal vs edge-weighted loop fusion",
		Headers: []string{"strategy", "arrays loaded", "cross-partition edge weight", "partitions"},
	}
	noParts := make([][]int, g.N)
	for i := range noParts {
		noParts[i] = []int{i}
	}
	t.AddRow("no fusion", g.NoFusionCost(), g.EdgeWeightCost(noParts), g.N)

	ew, ewCost, err := g.EdgeWeightedOptimal()
	if err != nil {
		return nil, err
	}
	t.AddRow("edge-weighted optimal (Gao/KM)", g.Cost(ew), ewCost, len(ew))

	bw, bwCost, err := g.Optimal()
	if err != nil {
		return nil, err
	}
	t.AddRow("bandwidth-minimal optimal", bwCost, g.EdgeWeightCost(bw), len(bw))

	h, err := g.Heuristic()
	if err != nil {
		return nil, err
	}
	t.AddRow("min-cut bisection heuristic", g.Cost(h), g.EdgeWeightCost(h), len(h))
	t.AddNote("paper: no fusion loads 20 arrays; edge-weighted fuses loops 1-5 and loads 8; bandwidth-minimal leaves loop 5 alone and loads 7")
	return t, nil
}

// Fig5 times the fusion pass's minimum hyper-edge cut
// (fusion.Graph.TwoPartition) on random hyper-graphs of growing size,
// reporting cut weights and wall time — the paper's complexity claim
// for its Figure 5 algorithm is O(E^3 + V), cubic in arrays but linear
// in loops. The time is the fastest of five solves of the same graph,
// so one GC pause or scheduler stall does not become a row's time.
func Fig5(maxLoops int) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 5: hyper-graph minimal cut scaling",
		Headers: []string{"loops", "arrays", "cut weight", "time"},
	}
	rng := rand.New(rand.NewSource(7))
	for n := 8; n <= maxLoops; n *= 2 {
		g := fusion.NewAbstract(n)
		arrays := n / 2
		for e := 0; e < arrays; e++ {
			size := 2 + rng.Intn(3)
			nodes := make([]int, size)
			for i := range nodes {
				nodes[i] = 1 + rng.Intn(n-2)
			}
			if err := g.AddArray(fmt.Sprintf("A%d", e), nodes...); err != nil {
				return nil, err
			}
		}
		// Chain edges guarantee connectivity without touching both
		// terminals at once.
		for v := 0; v+1 < n; v++ {
			if err := g.AddArray(fmt.Sprintf("c%d", v), v, v+1); err != nil {
				return nil, err
			}
		}
		var cut []string
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			start := time.Now()
			_, c, err := g.TwoPartition(0, n-1)
			if err != nil {
				return nil, err
			}
			best, cut = min(best, time.Since(start)), c
		}
		t.AddRow(n, len(g.ArrayNames), len(cut), best.Round(time.Microsecond).String())
	}
	return t, nil
}

// Fig6 reproduces the Figure 6 storage-reduction example: the original
// program, the paper's fused form, and the shrunk/peeled form —
// storage footprint, memory traffic and predicted time on the
// (cache-scaled) Origin2000.
func Fig6(cfg Config) (*report.Table, error) {
	spec := cfg.origin()
	t := &report.Table{
		Title:   "Figure 6: array shrinking and peeling",
		Headers: []string{"variant", "array storage", "mem traffic", "predicted time", "speedup"},
	}
	variants := []struct {
		name string
		p    *ir.Program
	}{
		{"(a) original", kernels.Fig6Original(cfg.Fig6N)},
		{"(b) fused", kernels.Fig6Fused(cfg.Fig6N)},
		{"(c) shrunk+peeled", kernels.Fig6ShrunkPeeled(cfg.Fig6N)},
	}
	var base *balance.Report
	for _, v := range variants {
		r, err := Analyze(v.p, spec)
		if err != nil {
			return nil, err
		}
		if base == nil {
			base = r
		}
		t.AddRow(v.name, report.Bytes(v.p.TotalArrayBytes()), report.Bytes(r.MemoryBytes),
			report.Seconds(r.Time.Total), report.F(base.Time.Total/r.Time.Total, 2))
	}
	t.AddNote("storage falls from two N^2 arrays to two N arrays plus two scalars")
	return t, nil
}

// Fig7 shows the store-elimination transformation itself: the original
// Figure 7 program and the output of the compiler pipeline, with the
// writeback gone.
func Fig7(cfg Config) (string, error) {
	p := kernels.Fig8Workload(cfg.Fig8N)
	q, actions, err := Optimize(p)
	if err != nil {
		return "", err
	}
	out := "Figure 7: store elimination\n--- original ---\n" + p.String() +
		"\n--- after fuse + store-elim ---\n" + q.String() + "\nactions:\n"
	for _, a := range actions {
		out += "  " + a.String() + "\n"
	}
	return out, nil
}

// SPUtilization reproduces the Section 2.3 claim that 5 of SP's 7 major
// routines utilize at least 84% of the Origin2000's memory bandwidth.
func SPUtilization(cfg Config) (*report.Table, error) {
	spec := cfg.origin()
	t := &report.Table{
		Title:   "Section 2.3: memory-bandwidth utilization of SP routines",
		Headers: []string{"routine", "effective bw", "utilization", "bottleneck"},
	}
	high := 0
	for _, name := range kernels.SPRoutineNames {
		p, err := kernels.SPRoutine(name, cfg.SPN)
		if err != nil {
			return nil, err
		}
		r, err := Analyze(kernels.FillArrays(p), spec)
		if err != nil {
			return nil, err
		}
		util := r.EffectiveBW / spec.MemoryBandwidth()
		if util >= 0.84 {
			high++
		}
		t.AddRow(name, report.MBs(r.EffectiveBW), fmt.Sprintf("%.0f%%", 100*util), r.Bottleneck)
	}
	t.AddNote("%d of %d routines at >= 84%% utilization (paper: 5 of 7)", high, len(kernels.SPRoutineNames))
	return t, nil
}

// ModelAblation contrasts the bandwidth-bound timing model against a
// latency-only model on the Section 2.1 pair: the latency model
// predicts equal times for the write and read loops (same miss
// counts), while the bandwidth model predicts — and the paper
// measured — a 2x gap.
func ModelAblation(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title:   "Model ablation: bandwidth-bound vs latency-bound prediction (Section 2.1 pair)",
		Headers: []string{"model", "write loop", "read loop", "write/read"},
	}
	for _, m := range []struct {
		name string
		spec machine.Spec
	}{
		{"bandwidth-bound (paper)", cfg.streamOrigin()},
		{"latency-only", latencyOnly(cfg.streamOrigin())},
	} {
		w, err := Analyze(kernels.Sec21Write(cfg.StreamN), m.spec)
		if err != nil {
			return nil, err
		}
		r, err := Analyze(kernels.Sec21Read(cfg.StreamN), m.spec)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.name, report.Seconds(w.Time.Total), report.Seconds(r.Time.Total),
			report.F(w.Time.Total/r.Time.Total, 2))
	}
	t.AddNote("hardware measured ~1.9x: only the bandwidth model explains the write loop's slowdown")
	return t, nil
}

// latencyOnly strips the bandwidth constraints, leaving pure exposed
// miss latency: infinite channel bandwidths, zero overlap.
func latencyOnly(s machine.Spec) machine.Spec {
	s.Name += "-latency-only"
	bw := make([]float64, len(s.ChannelBW))
	for i := range bw {
		bw[i] = 1e18
	}
	s.ChannelBW = bw
	s.LatencyOverlap = 0
	return s
}

// ConflictStudy reproduces the paper's footnote 3: the 3w6r kernel is
// the Exemplar outlier because six streamed arrays conflict in a
// direct-mapped cache. The executor lays arrays out back to back, so
// the study picks an array length that makes the allocation stride a
// multiple of the cache size — the Fortran COMMON-block layout under
// which all six streams land in the same cache sets. Comparing the
// real (direct-mapped) Exemplar against an 8-way variant isolates the
// conflict traffic.
func ConflictStudy(cfg Config) (*report.Table, error) {
	base := cfg.streamExemplar()
	cacheSize := int64(base.Caches[0].Size)
	// Allocation stride is bytes + 128-byte guard, 128-aligned; pick n
	// near cfg.StreamN with (8n + 128) % cacheSize == 0.
	n := cfg.StreamN
	for (int64(n)*8+128)%cacheSize != 0 {
		n++
	}
	t := &report.Table{
		Title:   "Footnote 3: direct-mapped conflicts on the Exemplar (3w6r outlier)",
		Headers: []string{"kernel", "cache", "mem traffic", "effective bw"},
	}
	for _, name := range []string{"1w2r", "3w6r"} {
		for _, v := range []struct {
			label string
			assoc int
		}{{"direct-mapped", 1}, {"8-way", 8}} {
			spec := cfg.streamExemplar()
			spec.Caches[0].Assoc = v.assoc
			p, err := kernels.StrideKernel(name, n)
			if err != nil {
				return nil, err
			}
			r, err := Analyze(p, spec)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, v.label, report.Bytes(r.MemoryBytes), report.MBs(r.EffectiveBW))
		}
	}
	t.AddNote("arrays aligned to the cache size: all streams map to the same sets, as the paper suspected for 3w6r")
	return t, nil
}
