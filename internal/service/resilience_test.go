package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/transform"
	"repro/internal/verify"
)

// postJSONHeaders is postJSON with extra request headers (X-Chaos).
func postJSONHeaders(t *testing.T, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// TestCoalescing: N identical concurrent requests perform exactly one
// pipeline run; followers share the leader's result and carry the
// coalesced marker. Both endpoints share the lifecycle, so both are
// checked: the stage counted is optimize's transform run and analyze's
// one measurement.
func TestCoalescing(t *testing.T) {
	for _, c := range []struct {
		path, stage string
		body        map[string]any
	}{
		{"/v1/optimize", "optimize", map[string]any{"kernel": "sec21", "n": 2048, "verify": "structural"}},
		{"/v1/analyze", "measure", map[string]any{"kernel": "sec21", "n": 2048, "belady": true}},
	} {
		t.Run(strings.TrimPrefix(c.path, "/v1/"), func(t *testing.T) { testCoalescing(t, c.path, c.stage, c.body) })
	}
}

func testCoalescing(t *testing.T, path, stage string, body map[string]any) {
	const n = 8
	s, ts := newTestServer(t, Config{
		Workers: 2,
		// Stall the leader's worker slot long enough for every
		// follower to arrive and coalesce onto its flight.
		Faults: faults.MustParse("worker.stall:once,delay=500ms"),
	})

	type result struct {
		status    int
		coalesced bool
		header    string
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postJSON(t, ts.URL+path, body)
			var meta ResponseMeta
			json.Unmarshal(b, &meta)
			results[i] = result{resp.StatusCode, meta.Coalesced, resp.Header.Get("X-Coalesced")}
		}(i)
	}
	wg.Wait()

	coalesced := 0
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.status)
		}
		if r.coalesced != (r.header == "1") {
			t.Fatalf("request %d: body coalesced=%v but header %q", i, r.coalesced, r.header)
		}
		if r.coalesced {
			coalesced++
		}
	}
	// Every request after the leader must have coalesced (they all
	// arrived during the leader's 500ms stall).
	if coalesced != n-1 {
		t.Fatalf("coalesced %d of %d requests, want %d", coalesced, n, n-1)
	}
	// The load-bearing assertion: one pipeline-stage run total.
	if got := s.stageSeconds.With(stage).Count(); got != 1 {
		t.Fatalf("pipeline ran %d times for %d identical requests, want exactly 1", got, n)
	}
	if got := s.coalesced.Value(); got != float64(n-1) {
		t.Fatalf("bwserved_coalesced_total = %v, want %d", got, n-1)
	}
}

// TestShedding drives the queue past MaxQueue and expects a 503 with
// Retry-After rather than unbounded queueing, on both endpoints.
func TestShedding(t *testing.T) {
	for _, path := range []string{"/v1/analyze", "/v1/optimize"} {
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) { testShedding(t, path) })
	}
}

func testShedding(t *testing.T, path string) {
	s, ts := newTestServer(t, Config{
		Workers:  1,
		MaxQueue: 1,
		// Every pipeline run stalls its worker slot for 1s, so a
		// second distinct request finds the queue at its cap.
		Faults: faults.MustParse("worker.stall:nth=1,delay=1s"),
	})

	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+path, map[string]any{"kernel": "sec21", "n": 1024})
		done <- resp.StatusCode
	}()
	// Wait until the first request holds the worker (stalling), so the
	// second is deterministically behind it.
	deadline := time.Now().Add(2 * time.Second)
	for s.workersBusy.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired a worker")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+path, map[string]any{"kernel": "sec21", "n": 4096})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After header")
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Fatalf("shed body does not say overloaded: %s", body)
	}
	if got := s.shed.Value(); got != 1 {
		t.Fatalf("bwserved_shed_total = %v, want 1", got)
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("stalled first request finished %d, want 200", code)
	}
}

// TestDegradationLadder primes the pipeline-cost estimate with one
// slow run, then sends a request whose deadline cannot afford full
// service and expects a degraded 200 that still carries the checked
// before/after measurement and is cached under its effective key.
func TestDegradationLadder(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		// Exactly one injected slow analysis: the priming run is slow
		// (inflating the EWMA), every later run is fast.
		Faults: faults.MustParse("analysis.slow:once,delay=400ms"),
	})

	// Prime: a full-service optimize whose wall time (≥ 400ms) becomes
	// the cost estimate.
	resp, body := postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "sec21", "n": 1024, "verify": "differential",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming run: status %d: %s", resp.StatusCode, body)
	}
	var prime OptimizeResponse
	json.Unmarshal(body, &prime)
	if prime.Degraded != nil {
		t.Fatalf("priming run degraded: %+v", prime.Degraded)
	}
	if est := s.pipeEWMA(); est < 0.4 {
		t.Fatalf("EWMA = %.3fs after 400ms-stalled run, want ≥ 0.4s", est)
	}

	// A distinct request with a 250ms deadline: under a ≥ 400ms
	// estimate the ladder must clamp differential verification away
	// (rung 1 or 2 depending on the exact estimate) — and the run
	// itself is fast now, so it completes inside the deadline.
	resp, body = postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "dmxpy", "n": 96, "verify": "differential", "timeout_ms": 250,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded run: status %d: %s", resp.StatusCode, body)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if or.Degraded == nil {
		t.Fatalf("response not degraded under a deadline below the cost estimate: %s", body)
	}
	if or.Degraded.Level < 1 || or.Degraded.Level > 2 {
		t.Fatalf("degrade level %d, want 1 (no-differential) or 2 (structural-only)", or.Degraded.Level)
	}
	if or.Verification.Mode == "differential" {
		t.Fatalf("degraded response still verified differentially: %+v", or.Verification)
	}
	if resp.Header.Get("X-Degraded") != or.Degraded.Mode {
		t.Fatalf("X-Degraded = %q, body mode %q", resp.Header.Get("X-Degraded"), or.Degraded.Mode)
	}
	if got := s.degraded.With(or.Degraded.Mode).Value(); got != 1 {
		t.Fatalf("bwserved_degraded_total{%s} = %v, want 1", or.Degraded.Mode, got)
	}
	// Every rung below cache-only keeps the checked measurement.
	if or.Before == nil || or.After == nil {
		t.Fatalf("rung-%d response lost its measurement", or.Degraded.Level)
	}

	// The degraded answer is cached under its effective key: the same
	// request again, at the same rung, is served from there.
	resp, body = postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "dmxpy", "n": 96, "verify": "differential", "timeout_ms": 250,
	})
	var repeat OptimizeResponse
	if err := json.Unmarshal(body, &repeat); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat degraded run: status %d: %s", resp.StatusCode, body)
	}
	if !repeat.Cached || repeat.Degraded == nil || repeat.Degraded.Level != or.Degraded.Level {
		t.Fatalf("repeat degraded run not served from its effective key: cached %v, degraded %+v",
			repeat.Cached, repeat.Degraded)
	}
	if repeat.Before == nil || repeat.After == nil {
		t.Fatal("cached degraded answer lost its measurement")
	}

	// Cache-poisoning check: a later full-deadline differential request
	// for the same program must NOT be served the degraded result.
	resp, body = postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "dmxpy", "n": 96, "verify": "differential",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up full run: status %d: %s", resp.StatusCode, body)
	}
	var full OptimizeResponse
	json.Unmarshal(body, &full)
	if full.Cached {
		t.Fatal("degraded result was cached under the full request's key")
	}
	if full.Degraded != nil || full.Verification.Mode != "differential" {
		t.Fatalf("full-deadline request degraded: %s", body)
	}
}

// TestDegradationCacheOnlyShed: when the deadline affords not even a
// quarter of the estimated cost and nothing is cached, the request is
// shed, not hung.
func TestDegradationCacheOnlyShed(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Faults:  faults.MustParse("analysis.slow:once,delay=400ms"),
	})
	resp, body := postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "sec21", "n": 1024, "verify": "differential",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming run: status %d: %s", resp.StatusCode, body)
	}
	// 30ms deadline vs ≥ 400ms estimate: rung 3, nothing cached → 503.
	for path, req := range map[string]map[string]any{
		"/v1/optimize": {"kernel": "dmxpy", "n": 80, "verify": "differential", "timeout_ms": 30},
		"/v1/analyze":  {"kernel": "dmxpy", "n": 80, "timeout_ms": 30},
	} {
		resp, body = postJSON(t, ts.URL+path, req)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503: %s", path, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "cache-only") {
			t.Fatalf("%s: shed reason does not mention cache-only: %s", path, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: cache-only shed without Retry-After", path)
		}
	}
}

// TestChaosAcceptance is the issue's core invariant: under injected
// pass panics, slow analyses, worker stalls and cache errors, every
// request resolves as 200 (possibly degraded) or 503 with Retry-After
// — never a 500, a hang, or a leaked worker slot.
func TestChaosAcceptance(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:  2,
		MaxQueue: 3,
		Faults: faults.MustParse(
			"pass.panic:nth=3;analysis.slow:nth=5,delay=30ms;worker.stall:nth=4,delay=60ms;cache.error:nth=7"),
	})

	kernels := []map[string]any{
		{"kernel": "sec21", "n": 1024, "verify": "differential"},
		{"kernel": "sec21", "n": 1024, "verify": "differential"}, // duplicate: coalescing under chaos
		{"kernel": "conv", "n": 2048},
		{"kernel": "dmxpy", "n": 64, "verify": "structural"},
		{"kernel": "fig7", "n": 1024},
	}
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(kernels))
	for r := 0; r < rounds; r++ {
		for i, k := range kernels {
			wg.Add(1)
			go func(r, i int, body map[string]any) {
				defer wg.Done()
				path := "/v1/optimize"
				if _, ok := body["verify"]; !ok {
					path = "/v1/analyze"
				}
				resp, b := postJSON(t, ts.URL+path, body)
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						errs <- fmt.Errorf("round %d req %d: 503 without Retry-After", r, i)
					}
				default:
					errs <- fmt.Errorf("round %d req %d: status %d: %s", r, i, resp.StatusCode, b)
				}
			}(r, i, k)
		}
		time.Sleep(10 * time.Millisecond) // staggered arrivals, like real load
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// No leaked worker slots or queue entries once the dust settles.
	deadline := time.Now().Add(2 * time.Second)
	for s.workersBusy.Value() != 0 || s.queueDepth.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("leaked slots: workers_busy=%v queue_depth=%v",
				s.workersBusy.Value(), s.queueDepth.Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the pool still serves.
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"kernel": "sec21", "n": 512})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos request: status %d: %s", resp.StatusCode, body)
	}
}

// TestExecCancelInjection: an injected execution cancellation surfaces
// as the deadline status (504), and the worker slot is reclaimed.
func TestExecCancelInjection(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Faults:  faults.MustParse("exec.cancel:nth=1"),
	})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"kernel": "sec21", "n": 1024})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), faults.ExecCancel) {
		t.Fatalf("error does not name the injected point: %s", body)
	}
	if s.workersBusy.Value() != 0 {
		t.Fatalf("worker slot leaked after injected cancel: %v", s.workersBusy.Value())
	}
}

// TestChaosHeader: per-request fault specs are an explicit opt-in and
// are validated.
func TestChaosHeader(t *testing.T) {
	t.Run("rejected when disabled", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		resp, body := postJSONHeaders(t, ts.URL+"/v1/analyze",
			map[string]any{"kernel": "sec21", "n": 512},
			map[string]string{"X-Chaos": "exec.cancel:nth=1"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
		}
	})
	t.Run("applied when enabled", func(t *testing.T) {
		_, ts := newTestServer(t, Config{ChaosHeader: true})
		resp, body := postJSONHeaders(t, ts.URL+"/v1/analyze",
			map[string]any{"kernel": "sec21", "n": 512},
			map[string]string{"X-Chaos": "exec.cancel:nth=1"})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504 from injected cancel: %s", resp.StatusCode, body)
		}
		// Same request without the header is untouched.
		resp, body = postJSON(t, ts.URL+"/v1/analyze", map[string]any{"kernel": "sec21", "n": 512})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("un-chaosed request: status %d: %s", resp.StatusCode, body)
		}
	})
	t.Run("bad spec is 400", func(t *testing.T) {
		_, ts := newTestServer(t, Config{ChaosHeader: true})
		resp, body := postJSONHeaders(t, ts.URL+"/v1/analyze",
			map[string]any{"kernel": "sec21", "n": 512},
			map[string]string{"X-Chaos": "no.such.point:nth=1"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
		}
	})
}

// flushErrWriter fails Flush, exercising Close's error latching.
type flushErrWriter struct{ err error }

func (w *flushErrWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *flushErrWriter) Flush() error                { return w.err }

// TestCloseIdempotentConcurrent: Close is safe to call repeatedly and
// concurrently — including with requests in flight — and every call
// reports the first close's outcome.
func TestCloseIdempotentConcurrent(t *testing.T) {
	flushErr := errors.New("disk full")
	s, ts := newTestServer(t, Config{
		Workers:        2,
		SampleInterval: time.Millisecond, // a live sampler goroutine to stop
		LogWriter:      &flushErrWriter{err: flushErr},
	})

	var reqs sync.WaitGroup
	for i := 0; i < 4; i++ {
		reqs.Add(1)
		go func(i int) {
			defer reqs.Done()
			postJSON(t, ts.URL+"/v1/analyze", map[string]any{"kernel": "sec21", "n": 1024 + i})
		}(i)
	}

	const closers = 8
	errsCh := make(chan error, closers)
	var wg sync.WaitGroup
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errsCh <- s.Close()
		}()
	}
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		if !errors.Is(err, flushErr) {
			t.Fatalf("Close() = %v, want the latched flush error from every call", err)
		}
	}
	reqs.Wait()
	// And once more after everything drained.
	if err := s.Close(); !errors.Is(err, flushErr) {
		t.Fatalf("late Close() = %v, want latched error", err)
	}
}

// TestTraceIDFallback: when the entropy source fails, trace IDs
// degrade to unique counter-derived values and the failure is logged
// exactly once.
func TestTraceIDFallback(t *testing.T) {
	orig := randRead
	randRead = func(b []byte) (int, error) { return 0, errors.New("entropy exhausted") }
	defer func() { randRead = orig }()

	var logBuf bytes.Buffer
	_, ts := newTestServer(t, Config{LogWriter: &logBuf})

	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"kernel": "sec21", "n": 512})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		id := resp.Header.Get("X-Trace-Id")
		if len(id) != 16 || id == "0000000000000000" {
			t.Fatalf("fallback trace ID %q: want 16 hex digits, non-degenerate", id)
		}
		if ids[id] {
			t.Fatalf("duplicate fallback trace ID %q", id)
		}
		ids[id] = true
	}
	if got := strings.Count(logBuf.String(), "trace_id_fallback"); got != 1 {
		t.Fatalf("fallback logged %d times, want exactly once:\n%s", got, logBuf.String())
	}
}

// TestLevelFor pins the ladder thresholds.
func TestLevelFor(t *testing.T) {
	est := 400 * time.Millisecond
	cases := []struct {
		remaining time.Duration
		want      degradeLevel
	}{
		{500 * time.Millisecond, degradeNone},
		{400 * time.Millisecond, degradeNone},
		{399 * time.Millisecond, degradeNoDiff},
		{200 * time.Millisecond, degradeNoDiff},
		{199 * time.Millisecond, degradeStructural},
		{100 * time.Millisecond, degradeStructural},
		{99 * time.Millisecond, degradeCacheOnly},
		{0, degradeCacheOnly},
	}
	for _, c := range cases {
		if got := levelFor(c.remaining, est); got != c.want {
			t.Errorf("levelFor(%v, %v) = %v, want %v", c.remaining, est, got, c.want)
		}
	}
	if got := levelFor(time.Millisecond, 0); got != degradeNone {
		t.Errorf("no estimate must mean full service, got %v", got)
	}
}

// TestDegradeApply walks every rung over every requested feature mask.
// A rung affords no more than was asked and no more than the rung above
// it, and the full request lands on the rung table exactly. Optimize's
// checked before/after measurement is not a feature a rung can shed:
// its body measures at every rung below cache-only.
func TestDegradeApply(t *testing.T) {
	within := func(a, b features) bool {
		return a.Limits == b.Limits && a.Verify <= b.Verify && (!a.Bounds || b.Bounds) &&
			(!a.Profile || b.Profile) && (!a.MRC || b.MRC) && (!a.Belady || b.Belady)
	}
	lim := exec.Limits{MaxSteps: 1 << 20}
	for mask := 0; mask < 1<<4; mask++ {
		for _, mode := range []verify.Mode{verify.ModeOff, verify.ModeStructural, verify.ModeDifferential} {
			req := features{Options: balance.Options{Limits: lim, Bounds: mask&1 != 0, Profile: mask&2 != 0,
				MRC: mask&4 != 0, Belady: mask&8 != 0}, Verify: mode}
			above := req
			for l := degradeNone; l <= degradeCacheOnly; l++ {
				eff := l.apply(req)
				if !within(eff, above) {
					t.Errorf("%v affords %+v for %+v, more than %+v above it", l, eff, req, above)
				}
				above = eff
			}
		}
	}

	all := features{Options: balance.Options{Limits: lim, Bounds: true, Profile: true, MRC: true, Belady: true},
		Verify: verify.ModeDifferential}
	want := [...]features{
		degradeNone:       all,
		degradeNoDiff:     {Options: balance.Options{Limits: lim, Bounds: true}, Verify: verify.ModeStructural},
		degradeStructural: {Options: balance.Options{Limits: lim}, Verify: verify.ModeOff},
		degradeCacheOnly:  {Options: balance.Options{Limits: lim}, Verify: verify.ModeOff},
	}
	s, _ := newTestServer(t, Config{Workers: 1})
	p, _, err := buildKernel("dmxpy", 48)
	if err != nil {
		t.Fatal(err)
	}
	for l, w := range want {
		l := degradeLevel(l)
		eff := l.apply(all)
		if eff != w {
			t.Errorf("%v: apply(all) = %+v, want %+v", l, eff, w)
		}
		if l == degradeCacheOnly {
			continue
		}
		resp, err := s.optimize(context.Background(), "dmxpy", p, machine.Origin2000(), transform.Config{
			Pipeline: transform.DefaultPipelineSpec, Verify: eff.Verify, Tol: verify.DefaultTol,
			ExecLimits: lim,
		}, eff)
		if err != nil {
			t.Fatalf("%v: optimize: %v", l, err)
		}
		or := resp.(*OptimizeResponse)
		if or.Before == nil || or.After == nil || or.Speedup <= 0 {
			t.Errorf("%v: optimize answer without its checked measurement: before %v after %v", l, or.Before, or.After)
		}
		if (or.Bounds != nil) != eff.Bounds {
			t.Errorf("%v: bounds block %v with Bounds %v", l, or.Bounds, eff.Bounds)
		}
	}
}
