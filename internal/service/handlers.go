package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/balance"
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/verify"
)

// ProgramRequest names the program and machine a request targets.
// Exactly one of Program (mini-language source) or Kernel (a built-in
// from GET /v1/kernels) must be set.
type ProgramRequest struct {
	Program string `json:"program,omitempty"`
	Kernel  string `json:"kernel,omitempty"`
	// N sizes a built-in kernel; 0 means its default.
	N int `json:"n,omitempty"`
	// Machine names a registered machine model or alias (GET
	// /v1/machines lists them; default Origin2000); Scale ≥ 2 shrinks
	// its caches by that factor (the paper's scaled-machine study).
	Machine string `json:"machine,omitempty"`
	Scale   int    `json:"scale,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline,
	// capped at the server's maximum.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Trace, when true, returns the request's pipeline span tree inline
	// in the response (the "trace" field): one span per pass attempt,
	// analysis run, verification phase and simulated execution, with
	// microsecond timings. Tracing is per-request and adds no cost to
	// untraced requests.
	Trace bool `json:"trace,omitempty"`
	// Profile, when true, attributes the measured traffic per array and
	// cache level (the "profile" response block; optimize additionally
	// returns "pass_deltas", which measure each intermediate pass
	// snapshot). Attribution rides on the measurement's own run but
	// makes every simulated access dearer, so the overload ladder sheds
	// it first — a degraded response reports the shed in "degraded" and
	// omits the block.
	Profile bool `json:"profile,omitempty"`
	// MRC, when true, additionally records the one-pass reuse-distance
	// sweep: exact LRU miss-ratio curves for every cache level, the
	// capacity knee against every registered machine's balance, and the
	// phase timeline of the access stream (the "mrc" response block;
	// optimize returns "mrc_before"/"mrc_after"). The recorder observes
	// the measurement's own run; its per-access bookkeeping is what the
	// overload ladder sheds, at the same rung as profiling.
	MRC bool `json:"mrc,omitempty"`
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	ProgramRequest
	// Machines fans the analysis out across several machine models in
	// one request — "same kernel, which machine is it balanced for" —
	// returning one balance+bounds entry per machine in the response's
	// "machines" array. Mutually exclusive with Machine; Scale applies
	// to every listed machine. Belady runs only on the first machine.
	Machines []string `json:"machines,omitempty"`
	// Belady additionally replays the last-level access trace under
	// Belady's optimal replacement vs LRU (Section 4.1's comparison).
	Belady bool `json:"belady,omitempty"`
}

// program returns the request's common half; the lifecycle reads the
// deadline and trace switch from it.
func (r *ProgramRequest) program() *ProgramRequest { return r }

// OptimizeRequest is the body of POST /v1/optimize.
type OptimizeRequest struct {
	ProgramRequest
	// Pipeline selects the passes: a pipeline string from the transform
	// registry (e.g. "fuse,reduce-storage,store-elim" or
	// "interchange:n1:i"), the vocabulary of bwopt -passes and GET
	// /v1/passes. Omitted, it runs the paper's default strategy.
	Pipeline string `json:"pipeline,omitempty"`
	// Verify is the per-checkpoint verification mode: "off" (default),
	// "structural" or "differential".
	Verify string `json:"verify,omitempty"`
	// Tol is the relative tolerance for differential verification.
	Tol float64 `json:"tol,omitempty"`
}

// ChannelBalance is one memory-hierarchy channel of a balance report.
type ChannelBalance struct {
	Name           string  `json:"name"`
	Bytes          int64   `json:"bytes"`
	ProgramBalance float64 `json:"program_balance"` // bytes per flop demanded
	MachineBalance float64 `json:"machine_balance"` // bytes per flop supplied
	Ratio          float64 `json:"ratio"`           // demand / supply
}

// CacheLevelStats is the simulated counters of one cache level.
type CacheLevelStats struct {
	Name         string  `json:"name"`
	Reads        int64   `json:"reads"`
	Writes       int64   `json:"writes"`
	ReadMisses   int64   `json:"read_misses"`
	WriteMisses  int64   `json:"write_misses"`
	Writebacks   int64   `json:"writebacks"`
	HitRatio     float64 `json:"hit_ratio"`
	TrafficBytes int64   `json:"traffic_bytes"`
}

// BalanceSummary is the JSON form of a balance.Report.
type BalanceSummary struct {
	Program             string            `json:"program"`
	Machine             string            `json:"machine"`
	Flops               int64             `json:"flops"`
	Channels            []ChannelBalance  `json:"channels"`
	Bottleneck          string            `json:"bottleneck"`
	MaxRatio            float64           `json:"max_ratio"`
	CPUUtilizationBound float64           `json:"cpu_utilization_bound"`
	PredictedSeconds    float64           `json:"predicted_seconds"`
	EffectiveBWMBs      float64           `json:"effective_bw_mbs"`
	CacheLevels         []CacheLevelStats `json:"cache_levels"`
	Text                string            `json:"text"` // human-readable rendering
}

// ReplayStats is one replacement policy's result in a Belady run.
type ReplayStats struct {
	Misses     int64   `json:"misses"`
	Writebacks int64   `json:"writebacks"`
	MissRatio  float64 `json:"miss_ratio"`
}

// BeladyComparison contrasts LRU with Belady's optimal replacement on
// the identical last-level access trace.
type BeladyComparison struct {
	Level    string      `json:"level"`
	Accesses int         `json:"accesses"`
	LRU      ReplayStats `json:"lru"`
	Belady   ReplayStats `json:"belady"`
	// MissReduction is 1 - belady/lru misses: how much an optimal
	// policy could save over LRU.
	MissReduction float64 `json:"miss_reduction"`
}

// ResponseMeta is the envelope both /v1/analyze and /v1/optimize
// responses embed: how the service delivered the answer, as opposed to
// the answer itself.
type ResponseMeta struct {
	// Cached marks an answer served from the result cache.
	Cached bool `json:"cached"`
	// Coalesced marks a response shared from an identical concurrent
	// request's pipeline run (singleflight): this request consumed no
	// worker of its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Degraded marks a response served below full service by the
	// overload ladder (see DegradeInfo); absent at full service.
	Degraded *DegradeInfo `json:"degraded,omitempty"`
	// Trace is the request's span tree, present only when the request
	// set "trace": true. Cached entries never store a trace; a traced
	// cache hit reports the (short) hit path.
	Trace []*trace.Node `json:"trace,omitempty"`
}

func (m ResponseMeta) envelope() ResponseMeta { return m }

// response is a lifecycle endpoint's answer. Cached and shared values
// are immutable, so each request's envelope goes on a shallow copy.
type response interface {
	envelope() ResponseMeta
	withEnvelope(ResponseMeta) response
}

func (r AnalyzeResponse) withEnvelope(m ResponseMeta) response  { r.ResponseMeta = m; return &r }
func (r OptimizeResponse) withEnvelope(m ResponseMeta) response { r.ResponseMeta = m; return &r }

// AnalyzeResponse is the body of a successful POST /v1/analyze.
type AnalyzeResponse struct {
	ResponseMeta
	Balance *BalanceSummary   `json:"balance"`
	Belady  *BeladyComparison `json:"belady,omitempty"`
	// Bounds is the analyzed program's data-movement lower bound and
	// the measurement's optimality gap (internal/bounds); absent when
	// the overload ladder shed it (structural-only).
	Bounds *BoundsSummary `json:"bounds,omitempty"`
	// Profile is the per-array traffic attribution of the primary
	// machine's measurement, present only for "profile": true requests
	// at full service. Its arrays' memory_bytes sum exactly to the
	// measured memory traffic; each carries its own compulsory floor
	// and optimality gap.
	Profile *balance.ProfileSummary `json:"profile,omitempty"`
	// MRC is the reuse-distance result of the primary machine's
	// measurement — per-level miss-ratio curves, per-machine capacity
	// knees, phase timeline — present only for "mrc": true requests at
	// full service.
	MRC *balance.MRCResult `json:"mrc,omitempty"`
	// Machines carries the per-machine results of a fan-out request
	// (AnalyzeRequest.Machines), in request order, first entry equal to
	// Balance/Bounds. Absent for single-machine requests.
	Machines []*MachineAnalysis `json:"machines,omitempty"`
}

// MachineAnalysis is one machine's result in a fan-out analyze
// response.
type MachineAnalysis struct {
	Machine string          `json:"machine"`
	Balance *BalanceSummary `json:"balance"`
	Bounds  *BoundsSummary  `json:"bounds,omitempty"`
}

// Verification reports the verified pipeline's outcome, including
// PR 1's graceful degradation (skipped passes, mode downgrades).
type Verification struct {
	Mode        string               `json:"mode"`
	Checkpoints int                  `json:"checkpoints"`
	Skipped     []report.SkippedPass `json:"skipped,omitempty"`
	Notes       []string             `json:"notes,omitempty"`
	Text        string               `json:"text"`
}

// OptimizeResponse is the body of a successful POST /v1/optimize.
type OptimizeResponse struct {
	ResponseMeta
	Optimized    string          `json:"optimized"` // optimized program source
	Actions      []string        `json:"actions"`
	Verification *Verification   `json:"verification"`
	Before       *BalanceSummary `json:"before"`
	After        *BalanceSummary `json:"after"`
	Speedup      float64         `json:"speedup"`
	// Bounds is the OPTIMIZED program's data-movement lower bound and
	// the after-measurement's optimality gap — how close the pipeline
	// landed to the floor any schedule must pay. Absent when the
	// overload ladder shed it (structural-only).
	Bounds *BoundsSummary `json:"bounds,omitempty"`
	// Profile is the per-array traffic attribution of the AFTER
	// measurement and PassDeltas the per-pass, per-array traffic diff
	// ("fuse saved 1.9 MiB on res"); both present only for "profile":
	// true requests at full service.
	Profile    *balance.ProfileSummary `json:"profile,omitempty"`
	PassDeltas []balance.PassDelta     `json:"pass_deltas,omitempty"`
	// MRCBefore/MRCAfter are the reuse-distance results of the original
	// and optimized measurements — the before/after overlay showing
	// where the optimizer moved the capacity knee — present only for
	// "mrc": true requests at full service.
	MRCBefore *balance.MRCResult `json:"mrc_before,omitempty"`
	MRCAfter  *balance.MRCResult `json:"mrc_after,omitempty"`
	// Passes and Analysis report the run's per-pass wall time and its
	// analysis compute counts and seconds (cached responses keep the
	// stats of the run that produced them).
	Passes   []transform.PassStat    `json:"pass_stats,omitempty"`
	Analysis transform.AnalysisStats `json:"analysis,omitempty"`
}

// ErrorResponse is the JSON error envelope for all non-2xx statuses.
type ErrorResponse struct {
	Error       string   `json:"error"`
	Diagnostics []string `json:"diagnostics,omitempty"`
}

// httpError carries a status code with the message up to the handler.
type httpError struct {
	code  int
	msg   string
	diags []string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// execStatus maps a pipeline execution error to a status: deadline and
// cancellation mean the service cut the request off (504); everything
// else is a property of the submitted program (422).
func execStatus(err error) int {
	if errors.Is(err, exec.ErrCanceled) || errors.Is(err, sim.ErrCanceled) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		writeJSON(w, he.code, ErrorResponse{Error: he.msg, Diagnostics: he.diags})
		return
	}
	writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
}

func (s *Server) failExec(w http.ResponseWriter, err error) {
	writeJSON(w, execStatus(err), ErrorResponse{Error: err.Error()})
}

// decode reads the JSON body into v, enforcing the body-size cap and
// rejecting unknown fields (they are usually typos of real options).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.fail(w, &httpError{code: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)})
			return false
		}
		s.fail(w, badRequest("invalid JSON request: %v", err))
		return false
	}
	return true
}

// requestCtx derives the per-request deadline: the client's timeout_ms
// when given, the server default otherwise, never above the maximum.
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) limits() exec.Limits { return exec.Limits{MaxSteps: s.cfg.MaxSteps} }

// startRequestTrace builds a per-request tracer when the client asked
// for one: the returned context carries the root span, so every traced
// call downstream parents under it. Untraced requests get ctx back
// unchanged and pay nothing. The root span is stamped with the ingress
// trace ID, joining the inline tree to the request log line.
func startRequestTrace(ctx context.Context, enabled bool, name string) (context.Context, *trace.Tracer, *trace.Span) {
	if !enabled {
		return ctx, nil, nil
	}
	tr := trace.New()
	root := tr.Start(nil, name, trace.String("trace_id", TraceID(ctx)))
	return trace.NewContext(ctx, root), tr, root
}

// resolveProgram turns the request into an IR program plus a canonical
// source identifier for cache keying.
func (s *Server) resolveProgram(req *ProgramRequest) (*ir.Program, string, error) {
	switch {
	case req.Program != "" && req.Kernel != "":
		return nil, "", badRequest("set exactly one of \"program\" and \"kernel\", not both")
	case req.Program != "":
		p, err := lang.Parse(req.Program)
		if err != nil {
			return nil, "", &httpError{code: http.StatusBadRequest,
				msg: "program does not parse", diags: []string{err.Error()}}
		}
		// Keyed on the printed form, so sources differing only in
		// layout or comments share one cache entry and one flight.
		return p, "src:" + p.String(), nil
	case req.Kernel != "":
		p, n, err := buildKernel(req.Kernel, req.N)
		if err != nil {
			return nil, "", badRequest("%v", err)
		}
		return p, fmt.Sprintf("kernel:%s:n=%d", req.Kernel, n), nil
	default:
		return nil, "", badRequest("set one of \"program\" (source) or \"kernel\" (a built-in name)")
	}
}

// resolveMachine maps (name, scale) onto a spec through the machine
// registry; unknown names turn into 400s whose message enumerates the
// registered machines.
func resolveMachine(name string, scale int) (machine.Spec, error) {
	spec, err := machine.Resolve(name, scale)
	if err != nil {
		return spec, badRequest("%v", err)
	}
	return spec, nil
}

// maxMachineFanout caps the "machines" list of one analyze request:
// each entry adds a simulated hierarchy to the measurement's run, so
// the cap bounds a single request's work the same way MaxSteps bounds
// the run's length.
const maxMachineFanout = 16

// resolveMachines resolves an analyze request's machine target(s): the
// singular Machine field, or the Machines fan-out list. It returns the
// specs in request order plus the canonical machine key the result is
// cached under (names joined with commas; aliases and duplicates
// canonicalize to the same key).
func resolveMachines(req *AnalyzeRequest) ([]machine.Spec, string, error) {
	if len(req.Machines) == 0 {
		spec, err := resolveMachine(req.Machine, req.Scale)
		if err != nil {
			return nil, "", err
		}
		return []machine.Spec{spec}, spec.Name, nil
	}
	if req.Machine != "" {
		return nil, "", badRequest("set at most one of \"machine\" and \"machines\"")
	}
	if len(req.Machines) > maxMachineFanout {
		return nil, "", badRequest("\"machines\" lists %d machines (max %d)", len(req.Machines), maxMachineFanout)
	}
	var specs []machine.Spec
	var names []string
	seen := map[string]bool{}
	for _, name := range req.Machines {
		spec, err := resolveMachine(name, req.Scale)
		if err != nil {
			return nil, "", err
		}
		if seen[spec.Name] {
			continue
		}
		seen[spec.Name] = true
		specs = append(specs, spec)
		names = append(names, spec.Name)
	}
	return specs, strings.Join(names, ","), nil
}

func summarize(rep *balance.Report) *BalanceSummary {
	// The text's lower-bound line belongs to profiled measurements; the
	// bounds block carries the bound for every other one.
	text := *rep
	if rep.Attribution == nil {
		text.Bound = nil
	}
	b := &BalanceSummary{
		Program:             rep.Program,
		Machine:             rep.Machine,
		Flops:               rep.Flops,
		Bottleneck:          rep.Bottleneck,
		MaxRatio:            rep.MaxRatio,
		CPUUtilizationBound: rep.CPUUtilizationBound,
		PredictedSeconds:    rep.Time.Total,
		EffectiveBWMBs:      rep.EffectiveBW / machine.MB,
		Text:                text.String(),
	}
	for i, name := range rep.ChannelNames {
		b.Channels = append(b.Channels, ChannelBalance{
			Name:           name,
			Bytes:          rep.ChannelBytes[i],
			ProgramBalance: rep.ProgramBalance[i],
			MachineBalance: rep.MachineBalance[i],
			Ratio:          rep.Ratios[i],
		})
	}
	for i, name := range rep.LevelNames {
		st := rep.LevelStats[i]
		var hr float64
		if acc := st.Reads + st.Writes; acc > 0 {
			hr = float64(st.Hits()) / float64(acc)
		}
		b.CacheLevels = append(b.CacheLevels, CacheLevelStats{
			Name:         name,
			Reads:        st.Reads,
			Writes:       st.Writes,
			ReadMisses:   st.ReadMisses,
			WriteMisses:  st.WriteMisses,
			Writebacks:   st.Writebacks,
			HitRatio:     hr,
			TrafficBytes: st.Traffic(),
		})
	}
	return b
}

// resultKey is the content address of an analyze or optimize result:
// every input that can change the answer, nothing that cannot. The
// optimize-only fields stay zero on analyze keys.
type resultKey struct {
	Endpoint string
	Source   string
	Machine  string
	Pipeline string  `json:",omitempty"`
	Tol      float64 `json:",omitempty"`
	// Features is what was actually computed: a degraded response lives
	// at its own address (see features).
	Features features
}

// call is one resolved /v1/analyze or /v1/optimize request: its cache
// address less the features, the features asked for, and the body.
type call struct {
	key  resultKey
	want features
	// body computes the envelope-free answer with the effective
	// features: the complete answer for eff's address.
	body func(ctx context.Context, eff features) (response, error)
}

// keyOf is the cache address of the answer computed with f. The
// tolerance shapes only a differential check, so other modes drop it.
func (c *call) keyOf(f features) (string, error) {
	k := c.key
	k.Features = f
	if f.Verify != verify.ModeDifferential {
		k.Tol = 0
	}
	return cache.Key(k)
}

// serve is the one request lifecycle of /v1/analyze and /v1/optimize:
// decode req, apply the deadline and any X-Chaos faults, start the
// inline trace, and run resolve (the endpoint's parse-and-key step)
// as the parse stage. A cache hit is answered at once; a miss
// coalesces onto an identical in-flight request (singleflight), whose
// leader runs the pipeline (see run). Every header the lifecycle sends
// is set here, and so is each request's own envelope, written on a
// copy of the shared answer.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, span string, req interface{ program() *ProgramRequest }, resolve func() (*call, error)) {
	if !s.decode(w, r, req) {
		return
	}
	ctx, cancel := s.requestCtx(r, req.program().TimeoutMS)
	defer cancel()
	ctx, err := s.chaosCtx(ctx, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	ctx, tr, root := startRequestTrace(ctx, req.program().Trace, span)

	begin := time.Now()
	c, err := resolve()
	if err != nil {
		s.fail(w, err)
		return
	}
	s.stageSeconds.With("parse").Observe(time.Since(begin).Seconds())
	key, err := c.keyOf(c.want)
	if err != nil {
		s.fail(w, err)
		return
	}

	var resp response
	var meta ResponseMeta
	if v, ok := s.cacheGet(ctx, key); ok {
		s.cacheHits.Inc()
		w.Header().Set("X-Cache", "hit")
		resp, meta.Cached = v.(response), true
	} else {
		s.cacheMisses.Inc()
		w.Header().Set("X-Cache", "miss")
		v, shared, err := s.flight.do(ctx, key, func() (any, error) { return s.run(ctx, c) })
		if err != nil {
			s.failOverload(w, err)
			return
		}
		resp = v.(response)
		meta = resp.envelope()
		if shared {
			s.coalesced.Inc()
			w.Header().Set("X-Coalesced", "1")
			meta.Coalesced = true
		}
		if meta.Degraded != nil {
			s.degraded.With(meta.Degraded.Mode).Inc()
			s.degradedAll.Inc()
			w.Header().Set("X-Degraded", meta.Degraded.Mode)
		}
	}
	if tr != nil {
		root.End(trace.String("cache", w.Header().Get("X-Cache")))
		meta.Trace = tr.Tree()
	}
	writeJSON(w, http.StatusOK, resp.withEnvelope(meta))
}

// run is the leader's half of a miss: admission (or a shed), the
// degradation rung and its cached-variant probe, a worker, the body.
// Only full-service runs feed the cost estimate: degraded runs are
// cheaper by construction and would drag it optimistic. The answer is
// cached trace- and envelope-free under the key of what was actually
// computed: a degraded run is exactly that variant's full answer, so
// it is stored there and never under the requested address.
func (s *Server) run(ctx context.Context, c *call) (response, error) {
	level, reason, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	eff, info, cached, err := s.degrade(ctx, level, reason, c.want, c.keyOf)
	if err != nil {
		return nil, err
	}
	if cached != nil {
		return cached.(response).withEnvelope(ResponseMeta{Cached: true, Degraded: info}), nil
	}

	release, err := s.acquire(ctx)
	if err != nil {
		return nil, fmt.Errorf("timed out waiting for a worker: %w", err)
	}
	defer release()

	begin := time.Now()
	resp, err := c.body(ctx, eff)
	if err != nil {
		return nil, err
	}
	if level == degradeNone {
		s.observePipeline(time.Since(begin))
	}
	if key, err := c.keyOf(eff); err == nil {
		s.cachePut(ctx, key, resp)
	}
	return resp.withEnvelope(ResponseMeta{Degraded: info}), nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	s.serve(w, r, "v1.analyze", &req, func() (*call, error) {
		p, sourceID, err := s.resolveProgram(&req.ProgramRequest)
		if err != nil {
			return nil, err
		}
		specs, machineKey, err := resolveMachines(&req)
		if err != nil {
			return nil, err
		}
		return &call{
			key: resultKey{Endpoint: "analyze", Source: sourceID, Machine: machineKey},
			want: features{Options: balance.Options{Limits: s.limits(), Bounds: true,
				Profile: req.Profile, MRC: req.MRC, Belady: req.Belady}},
			body: func(ctx context.Context, eff features) (response, error) {
				return s.analyze(ctx, &req, p, specs, eff)
			},
		}, nil
	})
}

// analyze is the analyze body: one measurement run that serves every
// target machine and every requested feature.
func (s *Server) analyze(ctx context.Context, req *AnalyzeRequest, p *ir.Program, specs []machine.Spec, eff features) (response, error) {
	s.programRuns.Inc()
	begin := time.Now()
	reps, err := balance.Measure(ctx, p, specs, eff.Options)
	s.stageSeconds.With("measure").Observe(time.Since(begin).Seconds())
	if err != nil {
		return nil, err
	}
	rep := reps[0]
	resp := &AnalyzeResponse{Balance: summarize(rep), Bounds: boundsOf(rep)}
	s.observeGap(req.Kernel, rep.Machine, resp.Bounds)
	if eff.Profile {
		resp.Profile = rep.Attribution.Summary()
		s.observeProfile(req.Kernel, resp.Profile)
	}
	if eff.MRC {
		resp.MRC = rep.MRC
		s.observeMRC(req.Kernel, resp.MRC)
	}
	if len(req.Machines) > 0 {
		// Fan-out: one entry per machine, the first sharing the primary
		// blocks above.
		resp.Machines = append(resp.Machines, &MachineAnalysis{
			Machine: rep.Machine, Balance: resp.Balance, Bounds: resp.Bounds,
		})
		for _, mrep := range reps[1:] {
			mb := boundsOf(mrep)
			s.observeGap(req.Kernel, mrep.Machine, mb)
			resp.Machines = append(resp.Machines, &MachineAnalysis{
				Machine: mrep.Machine, Balance: summarize(mrep), Bounds: mb,
			})
		}
	}
	if rep.Replay != nil {
		resp.Belady = beladyComparison(rep.Replay)
	}
	return resp, nil
}

// beladyComparison projects a measurement's LRU-vs-optimal replay onto
// the response block.
func beladyComparison(r *balance.Replay) *BeladyComparison {
	stats := func(st sim.Stats) ReplayStats {
		rs := ReplayStats{Misses: st.Misses(), Writebacks: st.Writebacks}
		if acc := st.Reads + st.Writes; acc > 0 {
			rs.MissRatio = float64(st.Misses()) / float64(acc)
		}
		return rs
	}
	cmp := &BeladyComparison{
		Level:    r.Level,
		Accesses: r.Accesses,
		LRU:      stats(r.LRU),
		Belady:   stats(r.Belady),
	}
	if r.LRU.Misses() > 0 {
		cmp.MissReduction = 1 - float64(r.Belady.Misses())/float64(r.LRU.Misses())
	}
	return cmp
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	s.serve(w, r, "v1.optimize", &req, func() (*call, error) {
		p, sourceID, err := s.resolveProgram(&req.ProgramRequest)
		if err != nil {
			return nil, err
		}
		spec, err := resolveMachine(req.Machine, req.Scale)
		if err != nil {
			return nil, err
		}
		mode, err := verify.ParseMode(req.Verify)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		// An omitted pipeline is the paper's strategy. Every spelling of
		// a pass sequence keys and runs as its canonical form; " , " is
		// the empty pipeline, not the default.
		spelled := req.Pipeline
		if spelled == "" {
			spelled = transform.DefaultPipelineSpec
		}
		pl, err := transform.ParsePipeline(spelled)
		if err != nil {
			return nil, &httpError{code: http.StatusBadRequest,
				msg: "pipeline does not parse", diags: []string{err.Error()}}
		}
		pipeline, tol := pl.Canonical(), req.Tol
		if tol <= 0 {
			tol = verify.DefaultTol
		}
		return &call{
			key: resultKey{Endpoint: "optimize", Source: sourceID, Machine: spec.Name,
				Pipeline: pipeline, Tol: tol},
			want: features{Options: balance.Options{Limits: s.limits(), Bounds: true,
				Profile: req.Profile, MRC: req.MRC}, Verify: mode},
			body: func(ctx context.Context, eff features) (response, error) {
				return s.optimize(ctx, req.Kernel, p, spec, transform.Config{
					Pipeline: pipeline, Verify: eff.Verify, Tol: tol, ExecLimits: s.limits(),
					SnapshotPasses: eff.Profile,
				}, eff)
			},
		}, nil
	})
}

// optimize is the optimize body: the verified pipeline under cfg, then
// the checked before/after measurement and the pass deltas
// (balance.MeasurePair), on every rung. An empty cfg.Pipeline runs no
// pass (cfg sets no Options).
func (s *Server) optimize(ctx context.Context, kernel string, p *ir.Program, spec machine.Spec, cfg transform.Config, eff features) (response, error) {
	obegin := time.Now()
	q, outcome, err := transform.OptimizeVerifiedCtx(ctx, p, cfg)
	s.stageSeconds.With("optimize").Observe(time.Since(obegin).Seconds())
	s.recordOutcome(outcome)
	if err != nil {
		return nil, err
	}

	resp := &OptimizeResponse{
		Optimized: q.String(),
		Actions:   make([]string, 0, len(outcome.Actions)),
		Verification: &Verification{
			Mode:        outcome.Mode.String(),
			Checkpoints: outcome.Checkpoints,
			Skipped:     outcome.SkippedReport(),
			Notes:       outcome.Notes,
			Text: report.Degradation(outcome.Mode.String(), outcome.Checkpoints,
				outcome.SkippedReport(), outcome.Notes).String(),
		},
		Passes:   outcome.Passes,
		Analysis: outcome.Analysis,
	}
	for _, a := range outcome.Actions {
		resp.Actions = append(resp.Actions, a.String())
	}

	// Both programs run once, plus one profiled run per intermediate
	// snapshot. A divergence fails the request (422), so it is never
	// cached. The cache key carries the tolerance only under
	// differential verification; elsewhere the check uses the default.
	runs := 2
	if n := len(outcome.Snapshots); n > 1 {
		runs += n - 1
	}
	s.programRuns.Add(float64(runs))
	tol := 0.0
	if cfg.Verify == verify.ModeDifferential {
		tol = cfg.Tol
	}
	begin := time.Now()
	pair, err := balance.MeasurePair(ctx, p, q, outcome.Snapshots, []machine.Spec{spec}, eff.Options, tol)
	s.stageSeconds.With("measure").Observe(time.Since(begin).Seconds())
	if err != nil {
		return nil, err
	}
	before, after := pair.Before[0], pair.After[0]
	resp.Before = summarize(before)
	resp.After = summarize(after)
	resp.Speedup = balance.Speedup(before, after)
	resp.Bounds = boundsOf(after)
	s.observeGap(kernel, spec.Name, resp.Bounds)
	if eff.Profile {
		resp.Profile = after.Attribution.Summary()
		s.observeProfile(kernel, resp.Profile)
		resp.PassDeltas = pair.Deltas
	}
	if eff.MRC {
		resp.MRCBefore = before.MRC
		resp.MRCAfter = after.MRC
		s.observeMRC(kernel, resp.MRCAfter)
	}
	return resp, nil
}

func (s *Server) handleKernels(w http.ResponseWriter, _ *http.Request) {
	list := Kernels()
	precomputed := kernelBounds()
	best := s.bestKnownGaps()
	for i := range list {
		if rows, ok := precomputed[list[i].Name]; ok {
			list[i].LowerBounds = rows
			for j := range rows {
				if rows[j].Machine == machine.Origin2000().Name {
					list[i].LowerBound = &rows[j]
					break
				}
			}
		}
		list[i].BestKnownGap = best[list[i].Name]
	}
	writeJSON(w, http.StatusOK, map[string]any{"kernels": list})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.cache.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"start_time":     s.start.UTC().Format(time.RFC3339),
		"uptime_seconds": time.Since(s.start).Seconds(),
		"go_version":     runtime.Version(),
		"workers":        s.cfg.Workers,
		"kernels":        len(Kernels()),
		"passes":         len(transform.Passes()),
		"pprof":          s.cfg.EnablePprof,
		"cache": map[string]any{
			"len": st.Len, "capacity": st.Capacity,
			"hits": st.Hits, "misses": st.Misses, "evictions": st.Evictions,
			"hit_ratio": st.HitRatio(),
		},
	})
}
