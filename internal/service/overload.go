package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/balance"
	"repro/internal/faults"
	"repro/internal/verify"
)

// This file is the service's overload-protection layer: request
// coalescing (singleflight on the content address), admission control
// (load shedding with 503 + Retry-After), and the deadline-driven
// degradation ladder. The ladder's rungs, from healthy to desperate:
//
//	0 full            the request runs exactly as asked
//	1 no-differential differential verification clamped to structural;
//	                  the extras (profiling, the MRC sweep and the
//	                  Belady replay) shed; the whole lower bound kept
//	2 structural-only verification drops to the IR-validate floor and
//	                  the lower bound is shed; the measurement stays,
//	                  and on optimize so does its check that the
//	                  optimized program prints what the original did
//	3 cache-only      only cached results are served; misses are shed
//
// A rung is chosen per request at admission time by comparing the
// remaining deadline budget against the estimated cost of the full
// pipeline (an EWMA of recent runs) plus the estimated queue wait.
// Degraded responses carry a DegradeInfo marker and an X-Degraded
// header; every shed carries Retry-After.

// DegradeInfo reports a degraded response's ladder position.
type DegradeInfo struct {
	// Level is the ladder rung (1..3; full-service responses carry no
	// DegradeInfo at all).
	Level int `json:"level"`
	// Mode is the rung's name ("no-differential", "structural-only",
	// "cache-only").
	Mode string `json:"mode"`
	// Reason explains why the service degraded this request.
	Reason string `json:"reason"`
}

type degradeLevel int

const (
	degradeNone degradeLevel = iota
	degradeNoDiff
	degradeStructural
	degradeCacheOnly
)

// rungs is the ladder: per rung, the most of each request feature it
// affords. ir.Program.Validate still guards each checkpoint when
// verification is off — that floor is unconditional in the pass
// manager — and every rung below cache-only measures.
var rungs = [...]struct {
	name   string
	verify verify.Mode // strongest verification
	bounds bool        // the lower bound
	extras bool        // profiling, the MRC sweep and the Belady replay
}{
	degradeNone:       {"full", verify.ModeDifferential, true, true},
	degradeNoDiff:     {"no-differential", verify.ModeStructural, true, false},
	degradeStructural: {"structural-only", verify.ModeOff, false, false},
	degradeCacheOnly:  {"cache-only", verify.ModeOff, false, false},
}

func (l degradeLevel) String() string {
	if l < 0 || int(l) >= len(rungs) {
		return fmt.Sprintf("degradeLevel(%d)", int(l))
	}
	return rungs[l].name
}

// features is what a request computes beyond its core product: the
// measurement options and, for optimize, the verification mode. The
// ladder maps the requested features to the effective ones, and the
// effective value is the cache-key field, so a degraded answer lives at
// its own address and is never served to a full-service request.
type features struct {
	balance.Options
	Verify verify.Mode
}

// apply returns the features the rung affords.
func (l degradeLevel) apply(f features) features {
	r := rungs[l]
	f.Verify = min(f.Verify, r.verify)
	f.Bounds = f.Bounds && r.bounds
	f.Profile = f.Profile && r.extras
	f.MRC = f.MRC && r.extras
	f.Belady = f.Belady && r.extras
	return f
}

// info builds the response marker for a non-full rung.
func (l degradeLevel) info(reason string) *DegradeInfo {
	if l == degradeNone {
		return nil
	}
	return &DegradeInfo{Level: int(l), Mode: l.String(), Reason: reason}
}

// degrade applies the admitted rung to a request's features. On a
// degraded rung an acceptable answer may already be cached: the
// bounded variant of the effective features (strictly better than the
// rung affords), or — below cache-only — the exact degraded
// variant under its own address. The requested address itself already
// missed, so it is not probed again. degrade returns the effective
// features, the response marker, and the cached answer when one was
// found; a cache-only rung with nothing cached is shed.
func (s *Server) degrade(ctx context.Context, level degradeLevel, reason string, req features, key func(features) (string, error)) (features, *DegradeInfo, any, error) {
	eff := level.apply(req)
	info := level.info(reason)
	if info == nil {
		return eff, nil, nil, nil
	}
	probes := []features{eff}
	probes[0].Bounds = true
	if level < degradeCacheOnly {
		probes = append(probes, eff)
	}
	reqKey, _ := key(req) // the handler already built this key without error
	for _, f := range probes {
		k, err := key(f)
		if err != nil || k == reqKey {
			continue
		}
		if v, ok := s.cacheGet(ctx, k); ok {
			return eff, info, v, nil
		}
	}
	if level >= degradeCacheOnly {
		return eff, info, nil, &shedError{
			retryAfter: s.retryAfterEstimate(s.queueDepth.Value()),
			reason:     "degraded to cache-only and result not cached: " + reason,
		}
	}
	return eff, info, nil, nil
}

// levelFor picks the ladder rung from the remaining deadline budget
// and the estimated cost of a full-service run, halving the budget per
// rung. Each rung sheds only work that costs. Differential verification
// roughly doubles an optimize (one reference execution per checkpoint),
// and the extras multiply the measurement they ride on: measured on
// Origin2000 with the service kernels at their base sizes (2-CPU VM,
// medians of 21 calls), Belady takes a bounded measurement from
// 0.97→3.25 ms on fig7, 1.25→3.15 ms on conv, 0.32→1.30 ms on dmxpy and
// 0.41→1.60 ms on sp (2.3–3.9×). So rung 1 sheds both; rung 2 sheds the
// structural verifier and the bound's footprint observer, leaving the
// measurement alone. The pebbling half of the bound is a static affine
// match of 0.16–2.4 µs against 0.25–1.3 ms for a bounded measurement
// (fig7 1.24 ms with it, 1.26 ms without), so it is never shed by
// itself.
func levelFor(remaining, estFull time.Duration) degradeLevel {
	if estFull <= 0 {
		return degradeNone // no estimate yet: nothing to compare against
	}
	switch {
	case remaining >= estFull:
		return degradeNone
	case remaining >= estFull/2:
		return degradeNoDiff
	case remaining >= estFull/4:
		return degradeStructural
	default:
		return degradeCacheOnly
	}
}

// shedError is an admission-control rejection: the request was shed
// before consuming a worker. The handler maps it to 503 with a
// Retry-After header.
type shedError struct {
	retryAfter time.Duration
	reason     string
}

func (e *shedError) Error() string { return "overloaded: " + e.reason }

// pipeEWMA returns the exponentially weighted moving average of recent
// full-pipeline wall times, in seconds (0 until the first run).
func (s *Server) pipeEWMA() float64 {
	return math.Float64frombits(s.pipeEWMABits.Load())
}

// observePipeline folds one pipeline wall time into the EWMA estimate
// admission control divides the deadline budget by.
func (s *Server) observePipeline(d time.Duration) {
	const alpha = 0.3
	obs := d.Seconds()
	for {
		old := s.pipeEWMABits.Load()
		prev := math.Float64frombits(old)
		next := obs
		if prev > 0 {
			next = alpha*obs + (1-alpha)*prev
		}
		if s.pipeEWMABits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfterEstimate guesses when retrying is worthwhile: the time for
// the current queue to drain through the worker pool, bounded to
// [1s, 30s] so clients neither hammer nor give up.
func (s *Server) retryAfterEstimate(waiting float64) time.Duration {
	est := time.Duration(waiting / float64(s.cfg.Workers) * s.pipeEWMA() * float64(time.Second))
	if est < time.Second {
		est = time.Second
	}
	if est > 30*time.Second {
		est = 30 * time.Second
	}
	return est
}

// admit is the admission decision for one would-be pipeline run. It
// either sheds the request (queue at its cap, or the estimated queue
// wait alone exceeds the request's remaining deadline) or returns the
// degradation rung the remaining budget affords.
func (s *Server) admit(ctx context.Context) (degradeLevel, string, error) {
	waiting := s.queueDepth.Value()
	if s.cfg.MaxQueue > 0 && waiting >= float64(s.cfg.MaxQueue) {
		return degradeNone, "", &shedError{
			retryAfter: s.retryAfterEstimate(waiting),
			reason:     fmt.Sprintf("queue depth %.0f at limit %d", waiting, s.cfg.MaxQueue),
		}
	}
	remaining := time.Duration(math.MaxInt64)
	if dl, ok := ctx.Deadline(); ok {
		remaining = time.Until(dl)
	}
	estWait := time.Duration(waiting / float64(s.cfg.Workers) * s.pipeEWMA() * float64(time.Second))
	if estWait > remaining {
		return degradeNone, "", &shedError{
			retryAfter: s.retryAfterEstimate(waiting),
			reason: fmt.Sprintf("estimated queue wait %v exceeds remaining deadline %v",
				estWait.Round(time.Millisecond), remaining.Round(time.Millisecond)),
		}
	}
	budget := remaining - estWait
	estFull := time.Duration(s.pipeEWMA() * float64(time.Second))
	level := levelFor(budget, estFull)
	reason := ""
	if level != degradeNone {
		reason = fmt.Sprintf("remaining deadline budget %v under estimated full-pipeline cost %v",
			budget.Round(time.Millisecond), estFull.Round(time.Millisecond))
	}
	return level, reason, nil
}

// flightCall is one in-flight leader computation and the latch its
// followers wait on.
type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// flightGroup coalesces concurrent identical requests (singleflight
// keyed on the result-cache content address): the first arrival runs
// the pipeline, later arrivals block on its latch and share the
// outcome — N identical requests in flight cost one optimization.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: map[string]*flightCall{}}
}

// do runs fn once per key among concurrent callers. The second result
// reports whether this caller was a follower (coalesced onto another
// request's run). Followers abandon the wait when their own ctx ends;
// the leader's run is unaffected. A panicking fn is converted into an
// error for every waiter — a wedged latch would otherwise hang
// followers forever.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (any, error)) (any, bool, error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	func() {
		defer func() {
			if r := recover(); r != nil {
				c.val, c.err = nil, fmt.Errorf("service: request handler panicked: %v", r)
			}
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
		}()
		c.val, c.err = fn()
	}()
	return c.val, false, c.err
}

// failOverload renders pipeline-layer errors, including shedding: a
// shedError becomes 503 + Retry-After (whole seconds, at least 1) and
// counts toward bwserved_shed_total; everything else takes the
// existing exec-error mapping.
func (s *Server) failOverload(w http.ResponseWriter, err error) {
	var se *shedError
	if errors.As(err, &se) {
		s.shed.Inc()
		secs := int(math.Ceil(se.retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: se.Error()})
		return
	}
	var he *httpError
	if errors.As(err, &he) {
		s.fail(w, err)
		return
	}
	s.failExec(w, err)
}

// chaosCtx applies a per-request X-Chaos fault spec. The header is an
// explicit opt-in (Config.ChaosHeader, test builds and chaos rigs
// only); on a production server it is rejected loudly rather than
// silently ignored, so a misconfigured load generator cannot mistake
// "no faults fired" for resilience.
func (s *Server) chaosCtx(ctx context.Context, r *http.Request) (context.Context, error) {
	h := r.Header.Get("X-Chaos")
	if h == "" {
		return ctx, nil
	}
	if !s.cfg.ChaosHeader {
		return ctx, &httpError{code: http.StatusBadRequest,
			msg: "X-Chaos header rejected: server started without -chaos-header"}
	}
	set, err := faults.Parse(h)
	if err != nil {
		return ctx, badRequest("%v", err)
	}
	return faults.With(ctx, set), nil
}

// cacheGet consults the result cache, honoring an injected cache
// fault: an erroring cache tier degrades to a miss, never a failure.
func (s *Server) cacheGet(ctx context.Context, key string) (any, bool) {
	if faults.Should(ctx, faults.CacheError) {
		return nil, false
	}
	return s.cache.Get(key)
}

// cachePut stores a result unless an injected cache fault drops it.
func (s *Server) cachePut(ctx context.Context, key string, v any) {
	if faults.Should(ctx, faults.CacheError) {
		return
	}
	s.cache.Put(key, v)
}
