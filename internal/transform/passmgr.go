package transform

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/deps"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/fusion"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Defaults and budgets of the pass manager.
const (
	// DefaultTol is the relative tolerance for differential
	// verification.
	DefaultTol = verify.DefaultTol
	// DefaultMaxFixpointIters bounds the scans of the storage-reduction
	// and store-elimination fixpoint loops. Each scan commits at most
	// one transformation, so the bound is effectively the maximum
	// number of storage transformations per pass, plus one confirming
	// scan.
	DefaultMaxFixpointIters = 512
	// DefaultMaxPassSteps bounds the transformations one pass may
	// commit, independent of fixpoint convergence.
	DefaultMaxPassSteps = 4096
)

// Config controls the checkpointed pass manager: which passes run
// (Options or an explicit Pipeline string), how each accepted
// checkpoint is verified, and the execution limits that keep a
// pathological input from hanging the pipeline.
type Config struct {
	Options
	// Pipeline, when non-empty, overrides Options with an explicit
	// pass pipeline string (see ParsePipeline); "pipeline" expands to
	// DefaultPipelineSpec. The empty string means "derive from
	// Options", which for Options.All() reproduces the paper's default
	// strategy exactly.
	Pipeline string
	// Verify selects per-checkpoint verification. Regardless of mode,
	// every checkpoint must pass ir.Program.Validate before it replaces
	// the last known-good program.
	Verify verify.Mode
	// Tol is the relative tolerance for differential verification;
	// non-positive means DefaultTol.
	Tol float64
	// ExecLimits bounds every program execution the pipeline performs:
	// the differential baseline and each checkpoint's verification run
	// once per input vector, each run under its own budget. The zero
	// value imposes no limit.
	ExecLimits exec.Limits
}

func (c Config) withDefaults() Config {
	if c.Tol <= 0 {
		c.Tol = DefaultTol
	}
	return c
}

// PassError is the structured record of a pass (or one checkpointed
// step of a pass) that failed: it panicked, returned an error, or
// produced a program that failed verification. The pipeline converts
// every such failure into a PassError, rolls back to the last
// known-good program, and continues with the remaining work.
type PassError struct {
	Pass     string // pass name: "fuse", "contract", "shrink", "store-elim", ...
	Nest     string // nest the step targeted, if any
	Array    string // array the step targeted, if any
	Panicked bool   // the failure was a contained panic
	Cause    error
}

func (e *PassError) Error() string {
	var loc string
	if e.Nest != "" {
		loc = " in nest " + e.Nest
	}
	if e.Array != "" {
		loc += " (array " + e.Array + ")"
	}
	verb := "failed"
	if e.Panicked {
		verb = "panicked"
	}
	return fmt.Sprintf("transform: pass %s%s %s: %v", e.Pass, loc, verb, e.Cause)
}

func (e *PassError) Unwrap() error { return e.Cause }

// PassStat records one pipeline pass's execution: wall time and how
// many checkpoints it committed or rolled back. The service aggregates
// these into /metrics and GET /v1/passes.
type PassStat struct {
	// Pass is the registry name ("fuse", "reduce-storage", ...).
	Pass string `json:"pass"`
	// Spec is the pipeline spec element that instantiated the pass
	// (e.g. "interchange:n1:i"), when it differs from the name.
	Spec string `json:"spec,omitempty"`
	// Seconds is the pass's wall time, including verification runs.
	Seconds float64 `json:"seconds"`
	// Checkpoints counts the program states the pass committed.
	Checkpoints int `json:"checkpoints"`
	// Skipped counts the steps the pass rolled back.
	Skipped int `json:"skipped"`
}

// Outcome is the degradation report of one pipeline run: what was
// applied, what was skipped and why, and how many checkpoints were
// verified and accepted.
type Outcome struct {
	// Mode is the verification mode the run effectively used (it can
	// downgrade from differential to structural when the reference run
	// of the input program itself fails on input vector 0; see Notes).
	Mode verify.Mode
	// Actions logs applied transformations and skipped passes in
	// pipeline order.
	Actions []Action
	// Skipped holds one PassError per rolled-back pass or step.
	Skipped []*PassError
	// Checkpoints counts accepted (verified) program states.
	Checkpoints int
	// Notes carries free-form degradation remarks (budget exhaustion,
	// verification downgrades).
	Notes []string
	// Passes records per-pass wall time and checkpoint counts, in
	// pipeline order.
	Passes []PassStat
	// Analysis counts each analysis's computes and their wall time
	// for the run.
	Analysis AnalysisStats
	// Snapshots holds the program after every pass that committed a
	// checkpoint, in pipeline order; the last is the returned program.
	// balance.MeasurePair consumes them for per-pass traffic
	// attribution.
	Snapshots []PassSnapshot
}

// The analyses the pass manager computes, named as in Outcome.Analysis
// and in their analysis.<name> trace spans.
const (
	depsAnalysis        = "deps"          // cross-nest dependence summary
	fusionGraphAnalysis = "fusion-graph"  // fusion hyper-graph over the nests
	livenessAnalysis    = "liveness"      // nest-level array liveness
	reuseClassAnalysis  = "reuse-classes" // one (nest, array) element live-range class
)

// AnalysisNames lists the analyses Outcome.Analysis can report, sorted.
func AnalysisNames() []string {
	return []string{depsAnalysis, fusionGraphAnalysis, livenessAnalysis, reuseClassAnalysis}
}

// AnalysisStat counts one analysis's computes in a run and their wall
// time.
type AnalysisStat struct {
	Computes uint64  `json:"computes"`
	Seconds  float64 `json:"seconds"`
}

// AnalysisStats holds one AnalysisStat per analysis that ran, by name.
type AnalysisStats map[string]AnalysisStat

// AnalysisTotal sums AnalysisStats over the analyses. Nothing is
// memoized, so every request is a compute: Requests counts the
// computes and Hits is always 0. Both stay for readers that report a
// hit fraction (perfbench's analysis.hit_frac).
type AnalysisTotal struct {
	Requests uint64
	Hits     uint64
	Seconds  float64
}

// Total sums the per-analysis counters.
func (s AnalysisStats) Total() AnalysisTotal {
	var t AnalysisTotal
	for _, st := range s {
		t.Requests += st.Computes
		t.Seconds += st.Seconds
	}
	return t
}

// PassSnapshot is the program as it stood after one committed pass.
// Program is the pipeline's own checkpoint, not a copy, and is
// read-only: every pass builds its result on a clone, so no later pass
// mutates it, and a caller that must mutate it (ir.AssignSites) clones
// it first, as balance.Measure does.
type PassSnapshot struct {
	// Pass is the pipeline spec element when it differs from the pass
	// name (e.g. "interchange:n1:i"), otherwise the registry name.
	Pass    string
	Program *ir.Program
}

// SkippedReport converts the structured skip list into the report
// package's rows, for rendering with report.Degradation. Both bwopt and
// the bwserved service present degradation this way.
func (o *Outcome) SkippedReport() []report.SkippedPass {
	out := make([]report.SkippedPass, 0, len(o.Skipped))
	for _, pe := range o.Skipped {
		where := pe.Nest
		if pe.Array != "" {
			if where != "" {
				where += "/"
			}
			where += pe.Array
		}
		out = append(out, report.SkippedPass{Pass: pe.Pass, Where: where, Cause: pe.Cause.Error()})
	}
	return out
}

// panicCause wraps a recovered panic value so PassError can tell
// contained panics apart from ordinary errors.
type panicCause struct{ val any }

func (p *panicCause) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// manager runs passes against a last-known-good program, verifying and
// committing one checkpoint at a time. Each pass computes the analyses
// it uses where it uses them; the one result kept across commits is the
// liveness summary, which the storage passes' fixpoint scans share.
type manager struct {
	cfg      Config
	ctx      context.Context
	passCtx  context.Context // ctx positioned at the running pass's span
	stepCtx  context.Context // ctx positioned at the running step's span
	cur      *ir.Program     // last known-good program
	live     *liveness.Info  // liveness of cur; nil after a commit that may have changed it
	baseline []*exec.Result  // reference results of the input, one per input vector, for differential mode
	out      *Outcome
	steps    int             // checkpoints committed by the current pass
	blocked  map[string]bool // (pass,nest,array) steps that already failed once
	stop     bool            // the run was canceled; abandon remaining work
}

// fixpointScans is the scan budget of every fixpoint loop,
// DefaultMaxFixpointIters; tests shrink it to exercise exhaustion.
var fixpointScans = DefaultMaxFixpointIters

// testPostCommit, when non-nil, runs after every committed checkpoint
// that kept the liveness summary, with the manager in its post-commit
// state. The property test hooks it to compare the kept summary against
// a fresh analysis of the new program.
var testPostCommit func(m *manager)

func newManager(ctx context.Context, p *ir.Program, cfg Config) *manager {
	cfg = cfg.withDefaults()
	m := &manager{
		cfg:     cfg,
		ctx:     ctx,
		passCtx: ctx,
		stepCtx: ctx,
		cur:     p.Clone(),
		out:     &Outcome{Mode: cfg.Verify, Analysis: AnalysisStats{}},
		blocked: map[string]bool{},
	}
	if cfg.Verify >= verify.ModeDifferential {
		// The input's reference results, computed once per pipeline. A
		// failure on input vector 0 downgrades the run to structural
		// verification; a failure on a later vector only drops that
		// vector from the comparison.
		bctx, bspan := trace.StartSpan(ctx, "transform.baseline")
		refs, err := verify.BaselineCtx(bctx, p, cfg.ExecLimits)
		switch {
		case err == nil:
			m.baseline = refs
			bspan.End()
		case errors.Is(err, exec.ErrCanceled):
			m.stop = true
			m.note("pipeline canceled during baseline run")
			bspan.End(trace.String("error", err.Error()))
		case len(refs) == 0:
			m.cfg.Verify = verify.ModeStructural
			m.out.Mode = verify.ModeStructural
			m.note("differential baseline run failed (%v); downgraded to structural verification", err)
			bspan.End(trace.String("error", err.Error()),
				trace.String("verdict", "downgraded-to-structural"))
		default:
			m.baseline = refs
			m.note("differential baseline run failed (%v); comparing over %d of %d input vectors",
				err, len(refs), verify.Vectors)
			bspan.End(trace.String("error", err.Error()),
				trace.String("verdict", "vector-dropped"))
		}
	}
	return m
}

// canceled reports (and latches) whether the run's context is done.
func (m *manager) canceled() bool {
	if m.stop {
		return true
	}
	if m.ctx.Err() != nil {
		m.stop = true
	}
	return m.stop
}

// OptimizeVerified runs a pass pipeline under the checkpointed pass
// manager. The pipeline comes from cfg.Pipeline when set, otherwise
// from cfg.Options (the paper's compiler strategy when all options are
// on). Each transformation step executes with panic containment, its
// result is verified according to cfg.Verify, and on any failure the
// pipeline rolls back to the last known-good program, records the
// skip, and continues with the remaining passes. The returned program
// is therefore always valid; the Outcome reports what was applied and
// what degraded. The error is non-nil only when the input program
// itself is invalid or the pipeline string does not parse.
func OptimizeVerified(p *ir.Program, cfg Config) (*ir.Program, *Outcome, error) {
	return OptimizeVerifiedCtx(context.Background(), p, cfg)
}

// OptimizeVerifiedCtx is OptimizeVerified with cancellation threaded
// through the pipeline: the manager polls ctx between checkpoints, and
// every execution it performs (the differential baseline and each
// verification run) aborts promptly when ctx is done. On cancellation
// it returns the last known-good program, the partial Outcome, and an
// error wrapping exec.ErrCanceled.
func OptimizeVerifiedCtx(ctx context.Context, p *ir.Program, cfg Config) (*ir.Program, *Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec := cfg.Pipeline
	if spec == "" {
		spec = cfg.Options.PipelineSpec()
	}
	pl, err := ParsePipeline(spec)
	if err != nil {
		return nil, &Outcome{Mode: cfg.Verify}, err
	}
	if err := p.Validate(); err != nil {
		return nil, &Outcome{Mode: cfg.Verify}, fmt.Errorf("transform: input program invalid: %w", err)
	}
	ctx, span := trace.StartSpan(ctx, "transform.optimize",
		trace.String("program", p.Name), trace.String("pipeline", spec))
	m := newManager(ctx, p, cfg)
	for _, st := range pl.steps {
		if m.canceled() {
			break
		}
		m.runPass(st)
	}
	span.End(trace.Int("checkpoints", int64(m.out.Checkpoints)),
		trace.Int("skipped", int64(len(m.out.Skipped))))
	if m.canceled() {
		return m.cur, m.out, fmt.Errorf("transform: pipeline canceled: %w", exec.ErrCanceled)
	}
	if err := m.cur.Validate(); err != nil {
		// Unreachable in normal operation: every checkpoint was
		// validated before acceptance. Guard anyway.
		return nil, m.out, fmt.Errorf("transform: pipeline produced invalid program: %w", err)
	}
	return m.cur, m.out, nil
}

// runPass executes one instantiated pipeline pass, recording its wall
// time and checkpoint counts.
func (m *manager) runPass(st pipelineStep) {
	m.steps = 0
	cp0, sk0 := m.out.Checkpoints, len(m.out.Skipped)
	pctx, span := trace.StartSpan(m.ctx, "pass."+st.info.Name)
	if span != nil && st.spec != st.info.Name {
		span.SetAttrs(trace.String("spec", st.spec))
	}
	m.passCtx = pctx
	begin := time.Now()
	st.run(m)
	ps := PassStat{
		Pass:        st.info.Name,
		Seconds:     time.Since(begin).Seconds(),
		Checkpoints: m.out.Checkpoints - cp0,
		Skipped:     len(m.out.Skipped) - sk0,
	}
	if st.spec != st.info.Name {
		ps.Spec = st.spec
	}
	span.End(trace.Int("checkpoints", int64(ps.Checkpoints)), trace.Int("skipped", int64(ps.Skipped)))
	m.out.Passes = append(m.out.Passes, ps)
	if ps.Checkpoints > 0 {
		m.out.Snapshots = append(m.out.Snapshots, PassSnapshot{Pass: st.spec, Program: m.cur})
	}
}

func (m *manager) note(format string, args ...any) {
	m.out.Notes = append(m.out.Notes, fmt.Sprintf(format, args...))
}

// stepFn attempts one transformation of the current program. A nil
// program with a nil error means "not applicable here" — not a
// failure, no checkpoint.
type stepFn func(cur *ir.Program) (*ir.Program, []Action, error)

// protect invokes fn with panic containment.
func protect(cur *ir.Program, fn stepFn) (next *ir.Program, acts []Action, err error) {
	defer func() {
		if r := recover(); r != nil {
			next, acts = nil, nil
			err = &panicCause{val: r}
		}
	}()
	return fn(cur)
}

// skip records a rolled-back pass in both the structured skip list and
// the action log.
func (m *manager) skip(pass, nest, array string, cause error) {
	pe := &PassError{Pass: pass, Nest: nest, Array: array, Cause: cause}
	if _, ok := cause.(*panicCause); ok {
		pe.Panicked = true
	}
	m.out.Skipped = append(m.out.Skipped, pe)
	m.out.Actions = append(m.out.Actions, Action{
		Pass: pass, Nest: nest, Array: array, Skipped: true, Note: cause.Error(),
	})
}

// check verifies a candidate checkpoint according to the configured
// mode. ir.Program.Validate is the unconditional floor. ctx carries
// both cancellation and the trace position of the step under
// verification, so the verify spans nest inside the step's span.
func (m *manager) check(ctx context.Context, next *ir.Program) error {
	if m.cfg.Verify >= verify.ModeStructural {
		if err := verify.StructuralCtx(ctx, next); err != nil {
			return err
		}
	} else if err := next.Validate(); err != nil {
		return err
	}
	if m.baseline != nil && m.cfg.Verify >= verify.ModeDifferential {
		if err := verify.DifferentialAgainstCtx(ctx, m.baseline, next, m.cfg.Tol, m.cfg.ExecLimits); err != nil {
			return err
		}
	}
	return nil
}

// runStep executes one candidate transformation against the current
// known-good program under panic containment, verifies the result, and
// commits it as the new checkpoint, dropping the liveness summary. On
// failure the known-good program is kept, the failure is recorded as a
// PassError, the step is blacklisted so fixpoint loops do not retry
// it, and false is returned.
func (m *manager) runStep(pass, nest, array string, fn stepFn) bool {
	if m.canceled() {
		return false
	}
	key := pass + "\x00" + nest + "\x00" + array
	if m.blocked[key] {
		return false
	}
	attrs := make([]trace.Attr, 0, 2)
	if nest != "" {
		attrs = append(attrs, trace.String("nest", nest))
	}
	if array != "" {
		attrs = append(attrs, trace.String("array", array))
	}
	sctx, span := trace.StartSpan(m.passCtx, "step."+pass, attrs...)
	m.stepCtx = sctx
	next, acts, err := protect(m.cur, func(cur *ir.Program) (*ir.Program, []Action, error) {
		// Chaos testing: an injected pass panic exercises exactly the
		// containment/rollback path a real pass bug would.
		faults.PanicIf(sctx, faults.PassPanic)
		return fn(cur)
	})
	if err != nil {
		m.blocked[key] = true
		m.skip(pass, nest, array, err)
		span.End(trace.String("verdict", "rolled-back"), trace.String("error", err.Error()))
		return false
	}
	if next == nil {
		span.End(trace.String("verdict", "skipped")) // not applicable here
		return false                                 // not applicable; no checkpoint
	}
	if err := m.check(sctx, next); err != nil {
		// A canceled verification run says nothing about the step:
		// abandon the pipeline without recording a spurious skip.
		if errors.Is(err, exec.ErrCanceled) {
			m.stop = true
			m.note("pipeline canceled during verification of pass %s", pass)
			span.End(trace.String("verdict", "canceled"))
			return false
		}
		m.blocked[key] = true
		m.skip(pass, nest, array, err)
		span.End(trace.String("verdict", "rolled-back"), trace.String("error", err.Error()))
		return false
	}
	m.cur = next
	m.live = nil
	m.out.Actions = append(m.out.Actions, acts...)
	m.out.Checkpoints++
	m.steps++
	span.End(trace.String("verdict", "committed"))
	return true
}

// keepLive reinstates the liveness summary live after a step that
// provably leaves it exact (DESIGN §9) and reports whether the step
// committed.
func (m *manager) keepLive(live *liveness.Info, committed bool) bool {
	if committed {
		m.live = live
		if testPostCommit != nil {
			testPostCommit(m)
		}
	}
	return committed
}

// analyze runs one analysis compute under an analysis.<name> span
// parented at ctx and charges its wall time to Outcome.Analysis. The
// whole-program analyses (all but the per-(nest, array) reuse classes)
// pass the analysis.slow fault point first.
func (m *manager) analyze(ctx context.Context, name string, compute func(ctx context.Context) error) error {
	ctx, span := trace.StartSpan(ctx, "analysis."+name)
	if name != reuseClassAnalysis {
		faults.Sleep(ctx, faults.AnalysisSlow)
	}
	begin := time.Now()
	err := compute(ctx)
	st := m.out.Analysis[name]
	st.Computes++
	st.Seconds += time.Since(begin).Seconds()
	m.out.Analysis[name] = st
	if err != nil {
		span.End(trace.String("error", err.Error()))
	} else {
		span.End()
	}
	return err
}

// classify is liveness.Classify of one (nest, array) pair of cur,
// counted as a reuse-classes compute.
func (m *manager) classify(ni int, array string) liveness.Class {
	var cl liveness.Class
	m.analyze(m.passCtx, reuseClassAnalysis, func(context.Context) error {
		cl = liveness.Classify(m.cur, ni, array)
		return nil
	})
	return cl
}

// fusePartition picks the partition fusePass realizes: the
// recursive-bisection heuristic. Tests replace it to force one.
var fusePartition = (*fusion.Graph).HeuristicCtx

// fusePass runs bandwidth-minimal loop fusion as one checkpointed step:
// the dependence summary, the fusion graph built on it, and a partition
// of the graph. A partition that neither fuses nor reorders nests is
// not applicable: an unchanged program is no checkpoint.
func (m *manager) fusePass() {
	m.runStep("fuse", "", "", func(cur *ir.Program) (*ir.Program, []Action, error) {
		var inf *deps.Info
		err := m.analyze(m.stepCtx, depsAnalysis, func(context.Context) (err error) {
			inf, err = deps.Analyze(cur)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		var g *fusion.Graph
		err = m.analyze(m.stepCtx, fusionGraphAnalysis, func(ctx context.Context) (err error) {
			g, err = fusion.BuildWithCtx(ctx, cur, inf)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		parts, err := fusePartition(g, m.stepCtx)
		if err != nil {
			return nil, nil, err
		}
		if parts.Identity() {
			return nil, nil, nil // nothing fused or reordered; no checkpoint
		}
		fused, err := fusion.ApplyCtx(m.stepCtx, cur, g, parts)
		if err != nil {
			return nil, nil, err
		}
		note := fmt.Sprintf("%d loops into %d partitions", len(cur.Nests), len(parts))
		if len(parts) == len(cur.Nests) {
			note = fmt.Sprintf("%d loops reordered", len(cur.Nests))
		}
		return fused, []Action{{Pass: "fuse", Note: note}}, nil
	})
}

// fixpoint drives one storage pass to convergence. Each scan uses the
// liveness summary of the current program, computed anew when a commit
// dropped it, and offers every (nest, array) candidate, in program
// order, to visit, which reports whether it committed a step; the scan
// ends at the first commit, and a scan without one ends the pass. Each
// scan commits at most one transformation, so the scan budget
// (fixpointScans) and the per-pass step limit keep a pathological input
// from looping forever; exhausting either is recorded as a skip.
func (m *manager) fixpoint(pass string, visit func(live *liveness.Info, ni int, nest, name string) bool) {
	for scans := 0; !m.canceled(); scans++ {
		if scans >= fixpointScans {
			m.skip(pass, "", "", fmt.Errorf("fixpoint iteration budget (%d scans) exhausted before convergence", fixpointScans))
			return
		}
		if m.steps >= DefaultMaxPassSteps {
			m.skip(pass, "", "", fmt.Errorf("per-pass step limit (%d) reached", DefaultMaxPassSteps))
			return
		}
		if m.live == nil {
			err := m.analyze(m.passCtx, livenessAnalysis, func(context.Context) (err error) {
				m.live, err = liveness.Analyze(m.cur)
				return err
			})
			if err != nil {
				m.skip(pass, "", "", fmt.Errorf("liveness analysis failed: %w", err))
				return
			}
		}
		if !m.scan(m.live, visit) {
			return
		}
	}
}

// scan is one fixpoint scan: it reports whether visit committed.
func (m *manager) scan(live *liveness.Info, visit func(live *liveness.Info, ni int, nest, name string) bool) bool {
	for ni := range m.cur.Nests {
		nest := m.cur.Nests[ni].Label
		for _, arr := range append([]*ir.Array(nil), m.cur.Arrays...) {
			if visit(live, ni, nest, arr.Name) {
				return true
			}
		}
	}
	return false
}

// storagePass iterates array contraction and shrinking to a fixpoint:
// contracting one array can make another transformable. Every accepted
// transformation is its own verified checkpoint. Only candidates that
// pass the cheap filters (dead after the nest, used only in it) are
// classified.
func (m *manager) storagePass() {
	m.fixpoint("reduce-storage", func(live *liveness.Info, ni int, nest, name string) bool {
		if live.LiveAfter(name, ni) || !usedOnlyIn(m.cur, ni, name) {
			return false
		}
		cl := m.classify(ni, name)
		switch cl.Kind {
		case liveness.ScalarLike:
			// Contraction removes the array's declaration and rewrites
			// only that array's references, so every surviving array's
			// nest-level read/write span — the facts the liveness
			// summary serves — is untouched.
			return m.keepLive(live, m.runStep("contract", nest, name, func(cur *ir.Program) (*ir.Program, []Action, error) {
				next, err := contractArrayCl(cur, ni, name, cl)
				if err != nil {
					return nil, nil, nil // not contractible here
				}
				return next, []Action{{Pass: "contract", Nest: nest, Array: name,
					Note: "array replaced by a scalar"}}, nil
			}))
		case liveness.CarryOne:
			return m.runStep("shrink", nest, name, func(cur *ir.Program) (*ir.Program, []Action, error) {
				next, err := shrinkArrayCl(cur, ni, name, cl)
				if err != nil {
					return nil, nil, nil // not shrinkable here
				}
				return next, []Action{{Pass: "shrink", Nest: nest, Array: name,
					Note: fmt.Sprintf("carry-1 along %s: scalar + buffer", cl.CarryVar)}}, nil
			})
		}
		return false
	})
}

// storeElimPass removes dead writebacks, one verified checkpoint per
// eliminated array, under the same fixpoint driver. The cheap liveness
// filter runs first: only arrays dead after the nest are classified.
func (m *manager) storeElimPass() {
	const pass = "store-elim"
	m.fixpoint(pass, func(live *liveness.Info, ni int, nest, name string) bool {
		if live.LiveAfter(name, ni) {
			return false
		}
		cl := m.classify(ni, name)
		if cl.Kind != liveness.ForwardOnly && cl.Kind != liveness.ScalarLike {
			return false // elimination provably inapplicable; skip without a step
		}
		committed := m.runStep(pass, nest, name, func(cur *ir.Program) (*ir.Program, []Action, error) {
			next, err := eliminateStoresWith(cur, ni, name, cl, live)
			if err != nil {
				return nil, nil, nil // no eliminable stores here
			}
			return next, []Action{{Pass: pass, Nest: nest, Array: name,
				Note: "writeback removed, value forwarded"}}, nil
		})
		// A forward-only elimination keeps the array's pre-store loads,
		// so its nest-level read span — and every other array's —
		// survives the rewrite; the liveness summary stays exact. A
		// scalar-like elimination forwards every read and so removes the
		// array's last loads while its declaration remains: liveness
		// must recompute.
		if cl.Kind == liveness.ForwardOnly {
			return m.keepLive(live, committed)
		}
		return committed
	})
}
