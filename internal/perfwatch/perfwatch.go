// Package perfwatch records benchmark trajectories and detects
// performance regressions against them.
//
// The repo's point-in-time observability (metrics, traces) answers
// "what is this run doing?"; perfwatch answers "is this run worse than
// the last one we trusted?". Following the methodology of
// bandwidth-limited performance modeling (Treibig & Hager,
// arXiv:0905.0792; Olivry et al., arXiv:1911.06664), a measurement is
// only meaningful next to a recorded baseline and a model-predicted
// bound, so a Record stores all three per kernel: the measured wall
// times (median of N repeats), the measured program balance per memory
// level, and the machine model's predicted balance for the same level.
//
// Records are written as schema-versioned BENCH_<n>.json files.
// BENCH_1.json, committed at the repo root, is the first point of the
// trajectory; `bwbench -record` appends the next, and
// `bwbench -baseline BENCH_1.json -check` compares a fresh collection
// against any committed point (see Detect for the noise model).
package perfwatch

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/balance"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/transform"
)

// SchemaVersion identifies the Record layout. Bump it when a field
// changes meaning; Detect refuses to compare records across versions.
const SchemaVersion = 1

// Env is the environment a record was collected in. Records from
// different environments are still comparable in their model-predicted
// columns (the simulator is deterministic) but not in wall times, so
// Detect notes — without failing — when environments differ.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Hostname   string `json:"hostname,omitempty"`
	// GitRef is the short commit hash at collection time, when the
	// working directory is a git checkout with git on PATH.
	GitRef string `json:"git_ref,omitempty"`
}

// CaptureEnv snapshots the current process's environment metadata.
func CaptureEnv() Env {
	e := Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if h, err := os.Hostname(); err == nil {
		e.Hostname = h
	}
	e.GitRef = gitRef()
	return e
}

// gitRef returns the short HEAD hash, or "" outside a git checkout.
func gitRef() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := osexec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Same reports whether two environments produce comparable wall times:
// identical toolchain, platform and parallelism.
func (e Env) Same(o Env) bool {
	return e.GoVersion == o.GoVersion && e.GOOS == o.GOOS && e.GOARCH == o.GOARCH &&
		e.GOMAXPROCS == o.GOMAXPROCS && e.NumCPU == o.NumCPU
}

// LevelBalance is one memory-hierarchy channel's measured demand next
// to the machine model's predicted supply, in bytes per flop. The
// measured column comes from the cache simulator (the software
// stand-in for hardware counters); the model column is the machine
// spec's peak. Both are deterministic, so they regress only when the
// compiler or model changes — the trustworthy half of a record.
type LevelBalance struct {
	Channel  string  `json:"channel"`
	Measured float64 `json:"measured_bytes_per_flop"`
	Model    float64 `json:"model_bytes_per_flop"`
	Ratio    float64 `json:"ratio"` // demand / supply
}

// KernelResult is one kernel's sample in a record.
type KernelResult struct {
	Kernel string `json:"kernel"`
	N      int    `json:"n"`
	// OptimizeNS holds every repeat's verified-pipeline wall time;
	// MedianOptimizeNS is their median, the value Detect compares.
	OptimizeNS       []int64 `json:"optimize_ns"`
	MedianOptimizeNS int64   `json:"median_optimize_ns"`
	// MeasureSamplesNS holds every repeat's balance-measurement wall
	// time (one simulated run of the optimized program each);
	// MeasureNS is their median.
	MeasureSamplesNS []int64 `json:"measure_ns_samples"`
	MeasureNS        int64   `json:"measure_ns"`
	// Levels is the optimized program's measured vs model-predicted
	// balance per memory channel.
	Levels []LevelBalance `json:"levels"`
	// Passes and Analysis attribute the optimization time: per-pass
	// wall seconds and the analysis manager's cache counters, taken
	// from the median repeat.
	Passes   []transform.PassStat `json:"passes"`
	Analysis analysis.Stats       `json:"analysis"`
	// MemoryBytes, BoundBytes and OptimalityGap situate the optimized
	// program's measured slow-memory traffic against the data-movement
	// lower bound (internal/bounds) at the machine's fast-memory
	// capacity. Both are deterministic model outputs, so they belong to
	// the trustworthy half of a record; they are computed outside the
	// timed sections and are additive to the schema (absent — zero — in
	// older baselines, which Detect treats as "no bound recorded").
	MemoryBytes   int64   `json:"memory_bytes,omitempty"`
	BoundBytes    int64   `json:"bound_bytes,omitempty"`
	OptimalityGap float64 `json:"optimality_gap,omitempty"`
	// ProfileMeasureNS is the wall time of one attributed measurement
	// (profile and full bounds on one run) of the optimized program,
	// and ProfileOverheadRatio its ratio to the median plain
	// measurement — the recorded price of turning the profiler on.
	// Computed outside the timed loops, so the compared wall-time
	// families are unaffected; additive to the schema (absent in older
	// baselines).
	ProfileMeasureNS     int64   `json:"profile_measure_ns,omitempty"`
	ProfileOverheadRatio float64 `json:"profile_overhead_ratio,omitempty"`
	// MRCMeasureNS is the wall time of one reuse-distance sweep
	// (an MRC measurement) of the optimized program, MRCOverheadRatio
	// its ratio to the median plain measurement, and WSKneeBytes the
	// capacity knee against the record's machine balance (-1 = the
	// kernel's demand never meets it). The knee is a deterministic
	// model output like the optimality gap; all three are computed
	// outside the timed loops and are additive to the schema (absent in
	// older baselines).
	MRCMeasureNS     int64   `json:"mrc_measure_ns,omitempty"`
	MRCOverheadRatio float64 `json:"mrc_overhead_ratio,omitempty"`
	WSKneeBytes      int64   `json:"ws_knee_bytes,omitempty"`
}

// Record is one point of the benchmark trajectory.
type Record struct {
	Schema    int            `json:"schema"`
	Config    string         `json:"config"`  // "default" or "quick"
	Machine   string         `json:"machine"` // balance-model machine
	CreatedAt string         `json:"created_at"`
	Env       Env            `json:"env"`
	Kernels   []KernelResult `json:"kernels"`
}

// Kernel returns the named kernel's result, or nil.
func (r *Record) Kernel(name string) *KernelResult {
	for i := range r.Kernels {
		if r.Kernels[i].Kernel == name {
			return &r.Kernels[i]
		}
	}
	return nil
}

// collectProgram names one kernel instance to sample.
type collectProgram struct {
	name string
	n    int
	prog *ir.Program
}

// collectSet is the fixed kernel panel a record samples — the same
// three representative kernels bwbench's attribution section uses, at
// the active config's sizes.
func collectSet(cfg core.Config) []collectProgram {
	return []collectProgram{
		{"convolution", cfg.ConvN, kernels.Convolution(cfg.ConvN)},
		{"dmxpy", cfg.DmxpyN, kernels.Dmxpy(cfg.DmxpyN)},
		{"mm-jki", cfg.MMN, kernels.MatmulJKI(cfg.MMN)},
	}
}

// Collect runs the verified optimizer pipeline `repeats` times per
// kernel on the config's representative panel, measures the optimized
// program's balance on the Origin2000 model, and returns the record.
// Repeats below 1 are raised to 1; odd counts give an exact median.
func Collect(ctx context.Context, cfgName string, cfg core.Config, repeats int) (*Record, error) {
	if repeats < 1 {
		repeats = 1
	}
	spec := machine.Origin2000()
	rec := &Record{
		Schema:    SchemaVersion,
		Config:    cfgName,
		Machine:   spec.Name,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Env:       CaptureEnv(),
	}
	for _, cp := range collectSet(cfg) {
		kr := KernelResult{Kernel: cp.name, N: cp.n}
		type run struct {
			ns       int64
			passes   []transform.PassStat
			analysis analysis.Stats
			prog     *ir.Program
		}
		runs := make([]run, 0, repeats)
		for i := 0; i < repeats; i++ {
			begin := time.Now()
			q, outcome, err := core.OptimizeOutcome(ctx, cp.prog)
			elapsed := time.Since(begin).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("perfwatch: optimize %s: %w", cp.name, err)
			}
			runs = append(runs, run{elapsed, outcome.Passes, outcome.Analysis, q})
			kr.OptimizeNS = append(kr.OptimizeNS, elapsed)
		}
		// The median repeat supplies both the compared wall time and the
		// attribution stats, so the two describe the same run.
		mi := medianIndex(kr.OptimizeNS)
		kr.MedianOptimizeNS = kr.OptimizeNS[mi]
		kr.Passes = runs[mi].passes
		kr.Analysis = runs[mi].analysis

		prog, specs := runs[mi].prog, []machine.Spec{spec}
		var rep *balance.Report
		for i := 0; i < repeats; i++ {
			begin := time.Now()
			reps, err := balance.Measure(ctx, prog, specs, balance.Options{})
			kr.MeasureSamplesNS = append(kr.MeasureSamplesNS, time.Since(begin).Nanoseconds())
			if err != nil {
				return nil, fmt.Errorf("perfwatch: measure %s: %w", cp.name, err)
			}
			rep = reps[0]
		}
		kr.MeasureNS = kr.MeasureSamplesNS[medianIndex(kr.MeasureSamplesNS)]
		// Lower bound and optimality gap, computed after (never inside)
		// the timed measurement loop so the wall-time families the
		// regression check compares are unaffected.
		kr.MemoryBytes = rep.MemoryBytes
		if a, err := bounds.Analyze(ctx, prog, bounds.FastCapacity(spec), exec.Limits{}); err == nil {
			kr.BoundBytes = a.Best.Bytes
			kr.OptimalityGap = bounds.Gap(rep.MemoryBytes, a.Best)
		}
		// Profiled-measurement cost, also outside the timed loops: one
		// attributed run, recorded next to the plain median it multiplies.
		pbegin := time.Now()
		if _, err := balance.Measure(ctx, prog, specs, balance.Options{Bounds: balance.BoundsFull, Profile: true}); err == nil {
			kr.ProfileMeasureNS = time.Since(pbegin).Nanoseconds()
			if kr.MeasureNS > 0 {
				kr.ProfileOverheadRatio = float64(kr.ProfileMeasureNS) / float64(kr.MeasureNS)
			}
		}
		// Reuse-distance sweep cost and the capacity knee, likewise
		// outside the timed loops. The MRC result stamps its own wall time.
		if reps, err := balance.Measure(ctx, prog, specs, balance.Options{MRC: true}); err == nil {
			m := reps[0]
			kr.MRCMeasureNS = m.MRC.MeasureNS
			if kr.MeasureNS > 0 {
				kr.MRCOverheadRatio = float64(kr.MRCMeasureNS) / float64(kr.MeasureNS)
			}
			kr.WSKneeBytes = -1
			if k := m.MRC.Knee(spec.Name); k != nil && k.Met {
				kr.WSKneeBytes = k.KneeBytes
			}
		}
		for i, ch := range rep.ChannelNames {
			kr.Levels = append(kr.Levels, LevelBalance{
				Channel:  ch,
				Measured: rep.ProgramBalance[i],
				Model:    rep.MachineBalance[i],
				Ratio:    rep.Ratios[i],
			})
		}
		rec.Kernels = append(rec.Kernels, kr)
	}
	return rec, nil
}

// medianIndex returns the index whose value is the median of ns (the
// lower middle for even lengths), without reordering ns.
func medianIndex(ns []int64) int {
	idx := make([]int, len(ns))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ns[idx[a]] < ns[idx[b]] })
	return idx[(len(idx)-1)/2]
}

// Write writes the record as indented JSON to path.
func Write(path string, r *Record) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("perfwatch: encode record: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Read loads and validates a record from path.
func Read(path string) (*Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("perfwatch: %s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("perfwatch: %s: schema %d, this build understands %d",
			path, r.Schema, SchemaVersion)
	}
	if len(r.Kernels) == 0 {
		return nil, fmt.Errorf("perfwatch: %s: record has no kernels", path)
	}
	return &r, nil
}

var benchName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// NextRecordPath returns the first unused BENCH_<n>.json path in dir,
// continuing the trajectory (existing records are never overwritten).
// The directory is created if missing.
func NextRecordPath(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	max := 0
	for _, e := range entries {
		if m := benchName.FindStringSubmatch(e.Name()); m != nil {
			var n int
			fmt.Sscanf(m[1], "%d", &n)
			if n > max {
				max = n
			}
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", max+1)), nil
}
