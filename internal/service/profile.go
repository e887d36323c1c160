package service

import (
	"sort"

	"repro/internal/balance"
)

// Profiled requests: the "profile": true flag on analyze and optimize
// asks for per-array traffic attribution (balance.Options.Profile).
// Attribution rides on the request's one measurement run — a
// site-tagged clone with per-site bucketing on every simulated access —
// and optimize additionally measures each intermediate pass snapshot
// for the pass deltas, so the degradation ladder sheds it first, at the
// same rung that sheds differential verification and the pebbling
// bound (see rungs). The effective profile flag is part of the cache
// address: a profile-shed response is never served to a full-service
// profiled request, and vice versa.

// observeProfile feeds one attribution result into telemetry and the
// dashboard: the per-kernel bwserved_array_traffic_bytes gauges (only
// kernel-named requests have a stable identity to label a metric
// with), and the most recent per-kernel attribution behind the
// /debug/dash traffic heatmap.
func (s *Server) observeProfile(kernel string, sum *balance.ProfileSummary) {
	if sum == nil || kernel == "" {
		return
	}
	for _, at := range sum.Arrays {
		for i, name := range sum.LevelNames {
			if i < len(at.LevelBytes) {
				s.arrayTraffic.With(kernel, at.Array, name).Set(float64(at.LevelBytes[i]))
			}
		}
	}
	s.profMu.Lock()
	s.lastProfiles[kernel] = sum
	s.profMu.Unlock()
}

// lastProfileSnapshots returns the most recent attribution per kernel,
// kernel names sorted, for the dashboard heatmap.
func (s *Server) lastProfileSnapshots() []kernelProfile {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	out := make([]kernelProfile, 0, len(s.lastProfiles))
	for k, sum := range s.lastProfiles {
		out = append(out, kernelProfile{Kernel: k, Summary: sum})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kernel < out[j].Kernel })
	return out
}

// kernelProfile pairs a kernel name with its latest attribution.
type kernelProfile struct {
	Kernel  string
	Summary *balance.ProfileSummary
}
