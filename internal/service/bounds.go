package service

import (
	"repro/internal/balance"
)

// BoundsSummary is the "bounds" block of analyze and optimize
// responses: the data-movement lower bound of the measured program at
// the target machine's fast-memory capacity (internal/bounds), and the
// optimality gap of the measured traffic against it.
type BoundsSummary struct {
	// FastBytes is the fast-memory capacity the bound is parameterized
	// by: the sum of the machine's cache capacities.
	FastBytes int64 `json:"fast_bytes"`
	// BoundBytes is the sound lower bound — no execution schedule of
	// this program can move fewer bytes across the slow-memory channel.
	BoundBytes int64 `json:"bound_bytes"`
	// Kind names the argument the bound came from ("compulsory" or
	// "pebbling").
	Kind string `json:"kind"`
	// Assumptions lists what the soundness argument relies on.
	Assumptions []string `json:"assumptions,omitempty"`
	// MeasuredBytes is the simulated slow-memory traffic the gap
	// divides by the bound.
	MeasuredBytes int64 `json:"measured_bytes"`
	// Gap is measured/bound; a sound bound keeps it >= 1, and 1.00
	// means the program's traffic is provably minimal. 0 means the
	// bound carries no information.
	Gap float64 `json:"gap"`
}

// boundsOf projects a measurement's lower bound onto the response
// block; nil when the measurement attached none (the rung shed it).
func boundsOf(rep *balance.Report) *BoundsSummary {
	a := rep.Bound
	if a == nil {
		return nil
	}
	return &BoundsSummary{
		FastBytes:     a.FastBytes,
		BoundBytes:    a.Best.Bytes,
		Kind:          a.Best.Kind,
		Assumptions:   a.Best.Assumptions,
		MeasuredBytes: rep.MemoryBytes,
		Gap:           rep.OptimalityGap,
	}
}

// observeGap feeds one computed optimality gap into telemetry: the
// overall sum/count pair behind the dashboard's windowed-mean series,
// and — for kernel-named requests, which have a stable identity to
// label a metric with — the per-kernel-per-machine /metrics gauge and
// the best-known-gap table GET /v1/kernels reports (best across
// machines).
func (s *Server) observeGap(kernel, machineName string, b *BoundsSummary) {
	if b == nil || b.Gap <= 0 {
		return
	}
	s.gapSum.Add(b.Gap)
	s.gapCount.Add(1)
	if kernel == "" {
		return
	}
	s.optimalityGap.With(kernel, machineName).Set(b.Gap)
	s.bestMu.Lock()
	if old, ok := s.bestGaps[kernel]; !ok || b.Gap < old {
		s.bestGaps[kernel] = b.Gap
	}
	s.bestMu.Unlock()
}

// bestKnownGaps snapshots the smallest gap observed per kernel since
// process start.
func (s *Server) bestKnownGaps() map[string]float64 {
	s.bestMu.Lock()
	defer s.bestMu.Unlock()
	out := make(map[string]float64, len(s.bestGaps))
	for k, v := range s.bestGaps {
		out[k] = v
	}
	return out
}
