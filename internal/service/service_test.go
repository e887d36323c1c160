package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func TestAnalyzeKernel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"kernel": "sec21", "n": 4096,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Cached {
		t.Fatal("first request claims cached")
	}
	if ar.Balance == nil || ar.Balance.Flops <= 0 {
		t.Fatalf("balance missing or empty: %+v", ar.Balance)
	}
	if len(ar.Balance.Channels) == 0 || len(ar.Balance.CacheLevels) == 0 {
		t.Fatalf("channels/cache levels missing: %+v", ar.Balance)
	}
	if ar.Balance.Bottleneck == "" {
		t.Fatal("no bottleneck reported")
	}
}

func TestAnalyzeSourceProgram(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := `
program tiny
const N = 1024
array a[N]
array b[N]
loop L1 {
  for i = 0, N - 1 {
    b[i] = a[i] * 2.0 + 1.0
  }
}
`
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

// TestCacheHitVsMiss asserts the second identical request is served
// from the cache, via the cache-hit counter — not wall clock — on both
// endpoints.
func TestCacheHitVsMiss(t *testing.T) {
	for _, path := range []string{"/v1/analyze", "/v1/optimize"} {
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) { testCacheHitVsMiss(t, path) })
	}
}

func testCacheHitVsMiss(t *testing.T, path string) {
	s, ts := newTestServer(t, Config{})
	req := map[string]any{"kernel": "conv", "n": 4096}

	resp, body := postJSON(t, ts.URL+path, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("miss request: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	st := s.CacheStats()
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("after miss: hits=%d misses=%d", st.Hits, st.Misses)
	}

	resp, body = postJSON(t, ts.URL+path, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hit request: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	var ar ResponseMeta
	json.Unmarshal(body, &ar)
	if !ar.Cached {
		t.Fatal("second response not marked cached")
	}
	st = s.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after hit: hits=%d misses=%d", st.Hits, st.Misses)
	}

	// A request differing only in kernel size is a distinct entry.
	resp, _ = postJSON(t, ts.URL+path, map[string]any{"kernel": "conv", "n": 8192})
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("different size X-Cache = %q, want miss", got)
	}
}

// TestRequestTimeout asserts a request exceeding its deadline returns
// 504 and that the worker slot is reclaimed (a follow-up succeeds on a
// 1-worker server).
func TestRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"kernel": "matmul", "n": 384, "timeout_ms": 30,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("error envelope missing: %s", body)
	}

	// The single worker must be free again for a small request.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"kernel": "sec21", "n": 256})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("follow-up status %d: %s", resp.StatusCode, body)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker slot not reclaimed after timeout")
	}
	if busy := s.workersBusy.Value(); busy != 0 {
		t.Fatalf("workersBusy = %v after requests drained", busy)
	}
}

// TestMalformedProgram asserts a syntax error yields 400 with parse
// diagnostics in the envelope.
func TestMalformedProgram(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"program": "program broken\nloop L1 for i = 0 to { oops",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Diagnostics) == 0 || !strings.Contains(er.Diagnostics[0], "lang:") {
		t.Fatalf("parse diagnostics missing: %+v", er)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"neither program nor kernel", map[string]any{}, http.StatusBadRequest},
		{"both program and kernel", map[string]any{"program": "x", "kernel": "conv"}, http.StatusBadRequest},
		{"unknown kernel", map[string]any{"kernel": "nope"}, http.StatusBadRequest},
		{"oversize kernel", map[string]any{"kernel": "conv", "n": 1 << 30}, http.StatusBadRequest},
		{"unknown machine", map[string]any{"kernel": "conv", "machine": "cray"}, http.StatusBadRequest},
		{"unknown field", map[string]any{"kernel": "conv", "bogus": true}, http.StatusBadRequest},
		{"oversize body", map[string]any{"program": strings.Repeat("x", 512)}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/analyze", tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
		})
	}
}

func TestOptimizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "sec21", "n": 4096, "verify": "differential",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if or.Optimized == "" || len(or.Actions) == 0 {
		t.Fatalf("optimized program or actions missing: %+v", or)
	}
	if or.Verification == nil || or.Verification.Mode != "differential" {
		t.Fatalf("verification block wrong: %+v", or.Verification)
	}
	if or.Speedup <= 0 {
		t.Fatalf("speedup = %v", or.Speedup)
	}
	if or.Before == nil || or.After == nil {
		t.Fatal("before/after balance missing")
	}
	// Fusion + store elimination must reduce memory traffic on sec21.
	if or.After.PredictedSeconds >= or.Before.PredictedSeconds {
		t.Fatalf("no predicted improvement: before %v after %v",
			or.Before.PredictedSeconds, or.After.PredictedSeconds)
	}
}

func TestAnalyzeBelady(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"kernel": "sec21", "n": 4096, "belady": true, "machine": "exemplar", "scale": 64,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Belady == nil || ar.Belady.Accesses == 0 {
		t.Fatalf("belady comparison missing: %+v", ar.Belady)
	}
	if ar.Belady.Belady.Misses > ar.Belady.LRU.Misses {
		t.Fatalf("optimal beat by LRU: %+v", ar.Belady)
	}
}

func TestKernelsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/kernels")
	if err != nil {
		t.Fatal(err)
	}
	var kr struct {
		Kernels []KernelInfo `json:"kernels"`
	}
	json.NewDecoder(resp.Body).Decode(&kr)
	resp.Body.Close()
	if len(kr.Kernels) < 10 {
		t.Fatalf("only %d kernels listed", len(kr.Kernels))
	}
	for _, k := range kr.Kernels {
		if k.Name == "" || k.DefaultN == 0 || k.MaxN == 0 {
			t.Fatalf("incomplete kernel info: %+v", k)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hr map[string]any
	json.NewDecoder(resp.Body).Decode(&hr)
	if hr["status"] != "ok" {
		t.Fatalf("healthz body: %v", hr)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := map[string]any{"kernel": "conv", "n": 1024}
	postJSON(t, ts.URL+"/v1/analyze", req)
	postJSON(t, ts.URL+"/v1/analyze", req) // cache hit
	postJSON(t, ts.URL+"/v1/analyze", map[string]any{"kernel": "nope"})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	out := b.String()
	for _, want := range []string{
		`bwserved_requests_total{endpoint="/v1/analyze",code="200"} 2`,
		`bwserved_requests_total{endpoint="/v1/analyze",code="400"} 1`,
		`bwserved_cache_hits_total 1`,
		`bwserved_cache_misses_total 1`,
		"# TYPE bwserved_stage_seconds histogram",
		"bwserved_stage_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestStructuredLog asserts request logging emits JSON lines with the
// expected fields.
func TestStructuredLog(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	_, ts := newTestServer(t, Config{LogWriter: w})
	postJSON(t, ts.URL+"/v1/analyze", map[string]any{"kernel": "conv", "n": 1024})

	mu.Lock()
	defer mu.Unlock()
	line := strings.TrimSpace(buf.String())
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("log line not JSON: %q", line)
	}
	if entry["path"] != "/v1/analyze" || entry["status"] != float64(200) || entry["cache"] != "miss" {
		t.Fatalf("log entry: %v", entry)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestConcurrentAnalyze hammers the service from many goroutines; run
// under -race it proves the worker pool, cache and metrics are
// race-free.
func TestConcurrentAnalyze(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, CacheEntries: 8})
	kernels := []string{"sec21", "conv", "fig7", "sec21-read"}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				body, _ := json.Marshal(map[string]any{
					"kernel": kernels[(g+i)%len(kernels)], "n": 1024,
				})
				resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					var b bytes.Buffer
					b.ReadFrom(resp.Body)
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, b.String())
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Hits+st.Misses != 64 {
		t.Fatalf("cache lookups = %d, want 64", st.Hits+st.Misses)
	}
	if st.Misses < int64(len(kernels)) {
		t.Fatalf("misses = %d, want at least one per distinct kernel", st.Misses)
	}
	if busy := s.workersBusy.Value(); busy != 0 {
		t.Fatalf("workersBusy = %v after drain", busy)
	}
}

// TestPassesEndpoint checks GET /v1/passes: the full registry with the
// default pipeline before any run, and cumulative pass/analysis totals
// after an optimize.
func TestPassesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get := func() PassesResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/passes")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var pr PassesResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}

	pr := get()
	if pr.DefaultPipeline != "fuse,reduce-storage,store-elim" {
		t.Fatalf("default pipeline = %q", pr.DefaultPipeline)
	}
	byName := map[string]PassSummary{}
	for _, p := range pr.Passes {
		if p.Usage == "" || p.Help == "" {
			t.Fatalf("pass %q missing usage/help", p.Name)
		}
		byName[p.Name] = p
	}
	for _, want := range []string{"fuse", "reduce-storage", "store-elim", "interchange"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("pass %q not listed", want)
		}
	}
	if byName["fuse"].Runs != 0 {
		t.Fatalf("fuse shows %d runs before any optimize", byName["fuse"].Runs)
	}
	if len(pr.Analyses) == 0 {
		t.Fatal("no analyses listed")
	}

	resp, body := postJSON(t, ts.URL+"/v1/optimize", map[string]any{"kernel": "sec21", "n": 4096})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: status %d: %s", resp.StatusCode, body)
	}

	pr = get()
	var fuse PassSummary
	for _, p := range pr.Passes {
		if p.Name == "fuse" {
			fuse = p
		}
	}
	if fuse.Runs != 1 || fuse.Checkpoints == 0 {
		t.Fatalf("fuse totals after optimize: %+v", fuse)
	}
	var reqs, hits uint64
	for _, a := range pr.Analyses {
		reqs += a.Requests
		hits += a.Hits
	}
	if reqs == 0 || hits == 0 {
		t.Fatalf("analysis totals after optimize: requests=%d hits=%d (%+v)", reqs, hits, pr.Analyses)
	}
}

// TestOptimizeAnalysisMetrics is the service-level acceptance check:
// after one POST /v1/optimize, /metrics reports nonzero analysis-cache
// hits, and the response carries per-pass and per-analysis stats.
func TestOptimizeAnalysisMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/optimize", map[string]any{"kernel": "sec21", "n": 4096})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if len(or.Passes) == 0 {
		t.Fatalf("no pass_stats in response: %s", body)
	}
	if or.Passes[0].Pass != "fuse" {
		t.Fatalf("first pass stat = %+v, want fuse", or.Passes[0])
	}
	tot := or.Analysis.Total()
	if tot.Requests == 0 || tot.Hits == 0 {
		t.Fatalf("analysis stats in response: %+v", or.Analysis)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(mresp.Body)
	out := b.String()
	for _, family := range []string{
		"bwserved_analysis_cache_hits_total",
		"bwserved_analysis_cache_misses_total",
		"bwserved_pass_seconds_total",
		"bwserved_pass_checkpoints_total",
	} {
		if !strings.Contains(out, family) {
			t.Fatalf("metrics missing family %q:\n%s", family, out)
		}
	}
	// At least one analysis label must report a nonzero hit count.
	nonzero := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "bwserved_analysis_cache_hits_total{") &&
			!strings.HasSuffix(line, " 0") {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatalf("all analysis-cache hit counters are zero:\n%s", out)
	}
}

// TestOptimizePipelineField exercises the explicit "pipeline" request
// field, its validation and its cache key: every spelling of one pass
// sequence shares an entry, an omitted pipeline is the default one,
// and the tolerance is part of the key only under differential
// verification.
func TestOptimizePipelineField(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "sec21", "n": 4096, "pipeline": "fuse,storeelim",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(or.Passes))
	for i, ps := range or.Passes {
		names[i] = ps.Pass
	}
	if len(names) != 2 || names[0] != "fuse" || names[1] != "store-elim" {
		t.Fatalf("pipeline ran %v, want [fuse store-elim]", names)
	}

	resp, body = postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "sec21", "pipeline": "warp",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pipeline: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "unknown pass") {
		t.Fatalf("bad-pipeline error not diagnostic: %s", body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "sec21", "pipeline": "fuse", "passes": map[string]any{"fuse": true},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pipeline+passes: status %d: %s", resp.StatusCode, body)
	}

	// Pairs of requests: the second must hit (or miss) the entry the
	// first wrote.
	base := map[string]any{"kernel": "fig7", "n": 512}
	with := func(kv ...any) map[string]any {
		m := map[string]any{}
		for k, v := range base {
			m[k] = v
		}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1]
		}
		return m
	}
	for _, c := range []struct {
		name          string
		first, second map[string]any
		hit           bool
	}{
		{"whitespace respelling", with("pipeline", "fuse,store-elim"), with("pipeline", " fuse , store-elim "), true},
		{"omitted is the default", with("pipeline", "pipeline"), base, true},
		{"empty pipeline is not the default", base, with("pipeline", " , "), false},
		{"tol ignored without differential", with("verify", "structural"), with("verify", "structural", "tol", 1e-3), true},
		{"tol 0 is the default tol", with("verify", "differential", "tol", 1e-9), with("verify", "differential"), true},
		{"tol keys differential", with("verify", "differential", "n", 256), with("verify", "differential", "n", 256, "tol", 1e-3), false},
	} {
		for i, req := range []map[string]any{c.first, c.second} {
			resp, body := postJSON(t, ts.URL+"/v1/optimize", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: request %d: status %d: %s", c.name, i, resp.StatusCode, body)
			}
			if i == 1 {
				if got := resp.Header.Get("X-Cache") == "hit"; got != c.hit {
					t.Errorf("%s: X-Cache %q, want hit=%v", c.name, resp.Header.Get("X-Cache"), c.hit)
				}
			}
		}
	}

	// A pipeline of separators runs no pass at all.
	resp, body = postJSON(t, ts.URL+"/v1/optimize", map[string]any{"kernel": "sec21", "n": 512, "pipeline": " , "})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty pipeline: status %d: %s", resp.StatusCode, body)
	}
	var empty OptimizeResponse
	if err := json.Unmarshal(body, &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Passes) != 0 || len(empty.Actions) != 0 {
		t.Fatalf("empty pipeline ran passes %+v, actions %v", empty.Passes, empty.Actions)
	}
}

// syncBuffer is a goroutine-safe log sink: the request logger writes
// after the response is sent, so tests must synchronize their reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestInlineTraceAndTraceID checks the request-tracing contract:
// "trace": true returns the span tree inline with the request's trace
// ID on the root, the same ID rides the X-Trace-Id header and the JSON
// request log, and untraced requests stay trace-free.
func TestInlineTraceAndTraceID(t *testing.T) {
	logs := &syncBuffer{}
	_, ts := newTestServer(t, Config{LogWriter: logs})

	resp, body := postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "dmxpy", "n": 64, "trace": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Trace-Id")
	if len(id) != 16 {
		t.Fatalf("X-Trace-Id = %q, want 16 hex chars", id)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if len(or.Trace) == 0 {
		t.Fatal("trace:true returned no inline span tree")
	}
	root := or.Trace[0]
	if root.Name != "v1.optimize" {
		t.Fatalf("root span = %q, want v1.optimize", root.Name)
	}
	if got := root.Attrs["trace_id"]; got != id {
		t.Fatalf("root trace_id attr = %v, header = %q", got, id)
	}
	seen := map[string]bool{}
	trace.Walk(or.Trace, func(n *trace.Node) { seen[n.Name] = true })
	for _, want := range []string{"transform.optimize", "pass.fuse", "pass.reduce-storage", "pass.store-elim"} {
		if !seen[want] {
			t.Errorf("inline trace missing %s span", want)
		}
	}

	// The request log line carries the same trace ID. The logger writes
	// after the response is flushed, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(logs.String(), `"trace_id":"`+id+`"`) {
		if time.Now().After(deadline) {
			t.Fatalf("trace_id %s never appeared in request log:\n%s", id, logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A cache hit on the identical request still returns a (short) tree.
	resp, body = postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "dmxpy", "n": 64, "trace": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hit status %d: %s", resp.StatusCode, body)
	}
	var hit OptimizeResponse
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("second identical request not served from cache")
	}
	if len(hit.Trace) == 0 || hit.Trace[0].Attrs["cache"] != "hit" {
		t.Fatalf("cache-hit trace missing or unmarked: %+v", hit.Trace)
	}
	if id2 := resp.Header.Get("X-Trace-Id"); id2 == "" || id2 == id {
		t.Fatalf("hit X-Trace-Id = %q, want fresh non-empty id (miss was %q)", id2, id)
	}

	// The analyze endpoint shares the lifecycle: its traced miss roots
	// at v1.analyze over the measurement, its traced hit is marked.
	for i, want := range []string{"miss", "hit"} {
		resp, body = postJSON(t, ts.URL+"/v1/analyze", map[string]any{
			"kernel": "dmxpy", "n": 64, "trace": true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze %d: status %d: %s", i, resp.StatusCode, body)
		}
		var ar AnalyzeResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		if len(ar.Trace) == 0 || ar.Trace[0].Name != "v1.analyze" || ar.Trace[0].Attrs["cache"] != want {
			t.Fatalf("analyze %s trace missing or unmarked: %+v", want, ar.Trace)
		}
		if ar.Cached != (want == "hit") {
			t.Fatalf("analyze %s: cached = %v", want, ar.Cached)
		}
		runs := 0
		trace.Walk(ar.Trace, func(n *trace.Node) {
			if n.Name == "exec.run" {
				runs++
			}
		})
		if runs != 1-i {
			t.Fatalf("analyze %s trace has %d exec.run spans, want %d", want, runs, 1-i)
		}
	}

	// Untraced requests must not pay for or leak a span tree.
	resp, body = postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "dmxpy", "n": 32,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced status %d: %s", resp.StatusCode, body)
	}
	var plain OptimizeResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if len(plain.Trace) != 0 {
		t.Fatalf("untraced request returned %d trace roots", len(plain.Trace))
	}
}

// TestHealthzBuildInfo checks the health endpoint's build/uptime
// fields: Go version, start time, registry sizes, pprof flag.
func TestHealthzBuildInfo(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr["go_version"] != runtime.Version() {
		t.Errorf("go_version = %v, want %s", hr["go_version"], runtime.Version())
	}
	st, _ := hr["start_time"].(string)
	if _, err := time.Parse(time.RFC3339, st); err != nil {
		t.Errorf("start_time %q not RFC 3339: %v", st, err)
	}
	if up, ok := hr["uptime_seconds"].(float64); !ok || up < 0 {
		t.Errorf("uptime_seconds = %v", hr["uptime_seconds"])
	}
	for _, k := range []string{"kernels", "passes", "workers"} {
		if n, ok := hr[k].(float64); !ok || n <= 0 {
			t.Errorf("%s = %v, want positive count", k, hr[k])
		}
	}
	if pp, ok := hr["pprof"].(bool); !ok || pp {
		t.Errorf("pprof = %v, want false without -pprof", hr["pprof"])
	}
}

// TestPprofMount checks /debug/pprof is available exactly when
// EnablePprof is set.
func TestPprofMount(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: status %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: status %d, want 200", resp.StatusCode)
	}
}
