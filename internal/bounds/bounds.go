// Package bounds computes parametric data-movement lower bounds: for a
// program and a fast-memory capacity S, a number of bytes that ANY
// execution schedule — any loop order, any tiling, any replacement
// policy — must move across the slow-memory channel. Dividing measured
// traffic by the bound yields the optimality gap, the "how far from the
// floor" column the balance reports were missing.
//
// Two bound families are implemented, and the engine reports the
// tighter (larger) of the two:
//
//  1. Compulsory traffic (Kind "compulsory"): every element whose first
//     access is a read holds an initial value that lives in slow memory,
//     so it must cross the channel at least once (live-in); every
//     element the program writes must eventually reach slow memory
//     (live-out — the hierarchy flushes dirty lines at program end, and
//     write-through caches forward every store). The bound is
//     8·(live-in + live-out) bytes. It is exact for streaming kernels
//     and a weak floor for compute-bound ones. Counting is dynamic: the
//     program runs once on a footprint recorder under the compiled
//     engine, so guards, non-affine subscripts and arbitrary control
//     flow are all handled exactly.
//
//  2. Red-blue pebbling (Kind "pebbling"): for loop nests with the
//     matrix-multiply dependence structure — three loops (i,k,j) and
//     references whose index supports are the three 2-element subsets
//     {i,k}, {k,j}, {i,j} — the Hong-Kung S-partitioning argument with
//     the Loomis-Whitney inequality bounds any schedule's traffic by
//
//     Q ≥ S_e · (⌈|I| / (2·S_e)^{3/2}⌉ − 1) elements,
//
//     where |I| is the iteration-space size and S_e the fast-memory
//     capacity in elements. Asymptotically this is the classical
//     n³/(2√2·√S) — the Ω(n³/√S) form. Detection is static, over the
//     affine forms of the subscripts; nests that don't match simply
//     contribute no pebbling bound (the compulsory floor still holds).
//
// Soundness is the contract: Bound.Bytes never exceeds the true minimal
// traffic, so gap = measured/bound is always ≥ 1. The assumptions each
// bound relies on are spelled out in Bound.Assumptions. See DESIGN.md
// §13 for the full argument.
package bounds

import (
	"context"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/machine"
)

// ElemSize is the element size the bounds count in (float64, matching
// ir.ElemSize).
const ElemSize = ir.ElemSize

// Bound kinds.
const (
	// KindCompulsory marks a live-in/live-out compulsory-traffic bound.
	KindCompulsory = "compulsory"
	// KindPebbling marks a red-blue pebbling (S-partition) bound.
	KindPebbling = "pebbling"
)

// DefaultMaxSteps bounds the footprint run when no tighter limit is
// supplied (matches the service's default step budget).
const DefaultMaxSteps = 200_000_000

// Bound is a sound lower bound on slow-memory traffic in bytes.
type Bound struct {
	// Bytes is the bound: no schedule can move fewer bytes across the
	// slow-memory channel. Zero means "no information" (trivially sound).
	Bytes int64 `json:"bytes"`
	// Kind names the argument the bound came from (compulsory, pebbling).
	Kind string `json:"kind"`
	// Assumptions lists what the soundness argument relies on.
	Assumptions []string `json:"assumptions,omitempty"`
}

// Analysis is the full lower-bound result for one program at one
// fast-memory capacity.
type Analysis struct {
	Program   string `json:"program"`
	FastBytes int64  `json:"fast_bytes"`
	// Compulsory is the live-in/live-out floor (always present).
	Compulsory Bound `json:"compulsory"`
	// Pebbling is the S-partition bound, nil when no nest matched the
	// detector.
	Pebbling *Bound `json:"pebbling,omitempty"`
	// Best is the tighter of the two (max — both are sound, so their
	// max is sound).
	Best Bound `json:"best"`
	// Footprint is the census behind the compulsory bound, including its
	// per-array decomposition (used for per-array optimality gaps).
	Footprint *Footprint `json:"footprint,omitempty"`
}

// Gap returns measured/bound — how far measured traffic sits above the
// floor. Returns 0 when the bound carries no information (Bytes <= 0):
// callers must treat 0 as "no gap available", never as a real ratio
// (a sound bound makes every real gap >= 1).
func Gap(measuredBytes int64, b Bound) float64 {
	if b.Bytes <= 0 || measuredBytes < 0 {
		return 0
	}
	return float64(measuredBytes) / float64(b.Bytes)
}

// FastCapacity returns the fast-memory capacity in bytes to bound
// against for a machine: the sum of all cache capacities. Summing is
// sound for any inclusivity policy — the true number of distinct
// elements resident in fast memory can never exceed the total capacity.
func FastCapacity(spec machine.Spec) int64 {
	var s int64
	for _, c := range spec.Caches {
		s += int64(c.Size)
	}
	return s
}

// Analyze computes the lower-bound analysis for p at fast-memory
// capacity fastBytes: one footprint run, then Assemble with the
// pebbling structure. Measurements that already execute the program
// attach a FootprintRecorder to that run and call Assemble instead.
func Analyze(ctx context.Context, p *ir.Program, fastBytes int64, lim exec.Limits) (*Analysis, error) {
	fp, err := ComputeFootprint(ctx, p, lim)
	if err != nil {
		return nil, err
	}
	return Assemble(p.Name, fastBytes, fp, ComputePebble(p)), nil
}

// Assemble combines a program's footprint and pebbling structure into
// its Analysis at one capacity. Both inputs are per-program facts, so
// one footprint and one pebbling structure serve every capacity.
func Assemble(prog string, fastBytes int64, fp *Footprint, pb *Pebble) *Analysis {
	a := &Analysis{
		Program:    prog,
		FastBytes:  fastBytes,
		Compulsory: fp.Bound(),
		Footprint:  fp,
	}
	a.Best = a.Compulsory
	if b, ok := pb.Bound(fastBytes); ok {
		a.Pebbling = &b
		if b.Bytes > a.Best.Bytes {
			a.Best = b
		}
	}
	return a
}
