package service

import (
	"net/http"
	"sync"

	"repro/internal/transform"
)

// passTotals accumulates per-pass and per-analysis aggregates across
// every optimize run, backing GET /v1/passes. The telemetry counters
// carry the same numbers in Prometheus form; this struct keeps them
// queryable as structured JSON without parsing the text exposition.
type passTotals struct {
	mu       sync.Mutex
	passes   map[string]*PassSummary
	analyses transform.AnalysisStats
}

func (t *passTotals) init() {
	t.passes = map[string]*PassSummary{}
	t.analyses = transform.AnalysisStats{}
}

// PassSummary is one registered pass in a GET /v1/passes response:
// its registry metadata plus cumulative execution totals.
type PassSummary struct {
	Name  string `json:"name"`
	Usage string `json:"usage"`
	Help  string `json:"help"`
	// Cumulative totals since process start, across all optimize runs.
	Runs        uint64  `json:"runs"`
	Seconds     float64 `json:"seconds"`
	Checkpoints uint64  `json:"checkpoints"`
	Skipped     uint64  `json:"skipped"`
}

// AnalysisSummary is one analysis's cumulative compute count and
// seconds in a GET /v1/passes response.
type AnalysisSummary struct {
	Name string `json:"name"`
	transform.AnalysisStat
}

// PassesResponse is the body of GET /v1/passes.
type PassesResponse struct {
	DefaultPipeline string            `json:"default_pipeline"`
	Passes          []PassSummary     `json:"passes"`
	Analyses        []AnalysisSummary `json:"analyses"`
}

// recordOutcome folds one optimize run's pass and analysis stats into
// the telemetry counters and the /v1/passes aggregates.
func (s *Server) recordOutcome(out *transform.Outcome) {
	if out == nil {
		return
	}
	for _, sk := range out.SkippedReport() {
		s.passFailures.With(sk.Pass).Inc()
	}
	for _, ps := range out.Passes {
		s.passSeconds.With(ps.Pass).Add(ps.Seconds)
		s.passCheckpoints.With(ps.Pass).Add(float64(ps.Checkpoints))
		s.passDuration.With(ps.Pass).Observe(ps.Seconds)
		s.passSecondsSum.Add(ps.Seconds)
		s.passRunsSum.Inc()
	}
	for name, st := range out.Analysis {
		s.analysisComputes.With(name).Add(float64(st.Computes))
		s.analysisSeconds.With(name).Add(st.Seconds)
	}

	t := &s.passTotals
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ps := range out.Passes {
		sum, ok := t.passes[ps.Pass]
		if !ok {
			sum = &PassSummary{Name: ps.Pass}
			t.passes[ps.Pass] = sum
		}
		sum.Runs++
		sum.Seconds += ps.Seconds
		sum.Checkpoints += uint64(ps.Checkpoints)
		sum.Skipped += uint64(ps.Skipped)
	}
	for name, st := range out.Analysis {
		acc := t.analyses[name]
		acc.Computes += st.Computes
		acc.Seconds += st.Seconds
		t.analyses[name] = acc
	}
}

// handlePasses serves GET /v1/passes: the pass registry (name, spec
// syntax, help) joined with cumulative execution totals, and every
// analysis with its cumulative compute count and seconds.
func (s *Server) handlePasses(w http.ResponseWriter, _ *http.Request) {
	t := &s.passTotals
	t.mu.Lock()
	resp := &PassesResponse{DefaultPipeline: transform.DefaultPipelineSpec}
	for _, pi := range transform.Passes() {
		sum := PassSummary{Name: pi.Name, Usage: pi.Usage, Help: pi.Help}
		if acc, ok := t.passes[pi.Name]; ok {
			sum.Runs, sum.Seconds = acc.Runs, acc.Seconds
			sum.Checkpoints, sum.Skipped = acc.Checkpoints, acc.Skipped
		}
		resp.Passes = append(resp.Passes, sum)
	}
	for _, name := range transform.AnalysisNames() {
		resp.Analyses = append(resp.Analyses, AnalysisSummary{Name: name, AnalysisStat: t.analyses[name]})
	}
	t.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}
