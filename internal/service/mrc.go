package service

import (
	"sort"

	"repro/internal/balance"
)

// Reuse-distance requests: the "mrc": true flag on analyze and
// optimize asks for the one-pass Mattson sweep (balance.Options.MRC) —
// miss-ratio curves per cache level, the capacity knee against the
// measured machine's balance, and the phase timeline of the access
// stream. The recorder rides on the request's one measurement run, but
// its per-access order-statistic bookkeeping is the dearest observer,
// so the degradation ladder sheds it at the same rung as profiling
// (see rungs). The effective flag is part of the cache address: an
// mrc-shed response is never served to a full-service mrc request, and
// vice versa.

// observeMRC feeds one reuse-distance result into telemetry and the
// dashboard: the kernel's bwserved_ws_knee_bytes gauge for the machine
// it ran on (only kernel-named requests have a stable identity to label
// a metric with), and the most recent curve per kernel behind the
// /debug/dash MRC panel.
func (s *Server) observeMRC(kernel string, m *balance.MRCResult) {
	if m == nil || kernel == "" {
		return
	}
	for i := range m.Knees {
		k := &m.Knees[i]
		v := float64(-1) // demand never meets this machine's balance
		if k.Met {
			v = float64(k.KneeBytes)
		}
		s.wsKnee.With(kernel, k.Machine).Set(v)
	}
	s.mrcMu.Lock()
	s.lastMRCs[kernel] = m
	s.mrcMu.Unlock()
}

// lastMRCSnapshots returns the most recent reuse-distance result per
// kernel, kernel names sorted, for the dashboard panel.
func (s *Server) lastMRCSnapshots() []kernelMRC {
	s.mrcMu.Lock()
	defer s.mrcMu.Unlock()
	out := make([]kernelMRC, 0, len(s.lastMRCs))
	for k, m := range s.lastMRCs {
		out = append(out, kernelMRC{Kernel: k, Result: m})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kernel < out[j].Kernel })
	return out
}

// kernelMRC pairs a kernel name with its latest reuse-distance result.
type kernelMRC struct {
	Kernel string
	Result *balance.MRCResult
}
