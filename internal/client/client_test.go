package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// fakeServer builds an httptest server whose /v1/analyze handler is
// driven by a per-call script of status codes; 200 entries answer with
// a minimal valid AnalyzeResponse.
func fakeServer(t *testing.T, script []int, opts ...func(http.ResponseWriter, int)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(calls.Add(1)) - 1
		code := script[len(script)-1]
		if n < len(script) {
			code = script[n]
		}
		for _, o := range opts {
			o(w, n)
		}
		w.Header().Set("X-Trace-Id", "deadbeefdeadbeef")
		if code == http.StatusOK {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"cached":false,"balance":null}`))
			return
		}
		http.Error(w, `{"error":"scripted failure"}`, code)
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

func newClient(ts *httptest.Server, mut ...func(*Config)) *Client {
	cfg := Config{
		BaseURL:     ts.URL,
		HTTPClient:  ts.Client(),
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	}
	for _, m := range mut {
		m(&cfg)
	}
	return New(cfg)
}

func TestRetriesUntilSuccess(t *testing.T) {
	ts, calls := fakeServer(t, []int{503, 503, 200})
	c := newClient(ts)
	resp, meta, err := c.Analyze(context.Background(), &service.AnalyzeRequest{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if resp == nil || meta.Attempts != 3 || meta.Sheds != 2 || meta.Status != 200 {
		t.Fatalf("meta = %+v, want 3 attempts, 2 sheds, status 200", meta)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if meta.TraceID != "deadbeefdeadbeef" {
		t.Fatalf("TraceID = %q", meta.TraceID)
	}
}

func TestNoRetryOnClientError(t *testing.T) {
	ts, calls := fakeServer(t, []int{422})
	c := newClient(ts)
	_, meta, err := c.Analyze(context.Background(), &service.AnalyzeRequest{})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 422 {
		t.Fatalf("err = %v, want StatusError 422", err)
	}
	if meta.Attempts != 1 || calls.Load() != 1 {
		t.Fatalf("4xx must not retry: meta=%+v calls=%d", meta, calls.Load())
	}
}

func TestHonorsRetryAfter(t *testing.T) {
	ts, _ := fakeServer(t, []int{503, 200}, func(w http.ResponseWriter, n int) {
		if n == 0 {
			w.Header().Set("Retry-After", "1")
		}
	})
	c := newClient(ts)
	begin := time.Now()
	_, meta, err := c.Analyze(context.Background(), &service.AnalyzeRequest{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// The jittered backoff alone is ≤ 5ms; waiting ≥ 1s proves the
	// Retry-After hint was honored.
	if elapsed := time.Since(begin); elapsed < time.Second {
		t.Fatalf("retried after %v, want ≥ 1s (Retry-After)", elapsed)
	}
	if meta.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", meta.Attempts)
	}
}

func TestAttemptsExhausted(t *testing.T) {
	ts, calls := fakeServer(t, []int{503})
	c := newClient(ts, func(cfg *Config) { cfg.BreakerThreshold = -1 })
	_, meta, err := c.Analyze(context.Background(), &service.AnalyzeRequest{})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 503 {
		t.Fatalf("err = %v, want wrapped StatusError 503", err)
	}
	if meta.Attempts != 3 || meta.Sheds != 3 || calls.Load() != 3 {
		t.Fatalf("meta=%+v calls=%d, want all 3 attempts shed", meta, calls.Load())
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	// Fail twice (threshold), then serve 200s.
	ts, calls := fakeServer(t, []int{500, 500, 200})
	c := newClient(ts, func(cfg *Config) {
		cfg.MaxAttempts = 1 // isolate breaker behavior from retries
		cfg.BreakerThreshold = 2
		cfg.BreakerCooldown = 50 * time.Millisecond
	})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, _, err := c.Analyze(ctx, &service.AnalyzeRequest{}); err == nil {
			t.Fatal("scripted failure returned nil error")
		}
	}
	if st, opens := c.BreakerState(); st != "open" || opens != 1 {
		t.Fatalf("breaker = %s/%d opens, want open/1", st, opens)
	}
	// While open: rejected without a network call.
	before := calls.Load()
	_, _, err := c.Analyze(ctx, &service.AnalyzeRequest{})
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker still touched the network")
	}
	// After the cooldown: half-open probe succeeds and closes it.
	time.Sleep(60 * time.Millisecond)
	if _, _, err := c.Analyze(ctx, &service.AnalyzeRequest{}); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if st, _ := c.BreakerState(); st != "closed" {
		t.Fatalf("breaker = %s after successful probe, want closed", st)
	}
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	ts, _ := fakeServer(t, []int{500})
	c := newClient(ts, func(cfg *Config) {
		cfg.MaxAttempts = 1
		cfg.BreakerThreshold = 1
		cfg.BreakerCooldown = 30 * time.Millisecond
	})
	ctx := context.Background()
	c.Analyze(ctx, &service.AnalyzeRequest{}) // opens
	time.Sleep(40 * time.Millisecond)
	c.Analyze(ctx, &service.AnalyzeRequest{}) // failed half-open probe
	if st, opens := c.BreakerState(); st != "open" || opens != 2 {
		t.Fatalf("breaker = %s/%d opens, want open/2 after failed probe", st, opens)
	}
}

func TestPerAttemptTimeout(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// First attempt black-holes past the attempt timeout.
			select {
			case <-r.Context().Done():
			case <-time.After(2 * time.Second):
			}
			return
		}
		w.Write([]byte(`{"cached":false,"balance":null}`))
	}))
	t.Cleanup(ts.Close)
	c := New(Config{
		BaseURL: ts.URL, HTTPClient: ts.Client(),
		MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		AttemptTimeout: 50 * time.Millisecond,
	})
	begin := time.Now()
	_, meta, err := c.Analyze(context.Background(), &service.AnalyzeRequest{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if meta.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (first timed out)", meta.Attempts)
	}
	if elapsed := time.Since(begin); elapsed > time.Second {
		t.Fatalf("call took %v: per-attempt timeout did not cut the stalled attempt", elapsed)
	}
}

func TestCallCtxCancelStopsRetries(t *testing.T) {
	ts, _ := fakeServer(t, []int{503})
	c := newClient(ts, func(cfg *Config) {
		cfg.MaxAttempts = 100
		cfg.BaseBackoff = 20 * time.Millisecond
		cfg.MaxBackoff = 20 * time.Millisecond
		cfg.BreakerThreshold = -1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, err := c.Analyze(ctx, &service.AnalyzeRequest{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ctx deadline", err)
	}
}

// TestMetaFromEnvelope: Analyze and Optimize read the service-level
// fields of Meta from the one response envelope both endpoints share.
func TestMetaFromEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"cached":true,"coalesced":true,"degraded":{"level":1,"mode":"no-differential","reason":"test"}}`))
	}))
	t.Cleanup(ts.Close)
	c := newClient(ts)
	_, am, err := c.Analyze(context.Background(), &service.AnalyzeRequest{})
	if err != nil {
		t.Fatal(err)
	}
	_, om, err := c.Optimize(context.Background(), &service.OptimizeRequest{})
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]Meta{"analyze": am, "optimize": om} {
		if !m.Cached || !m.Coalesced || m.Degraded != "no-differential" {
			t.Errorf("%s meta = %+v, want cached, coalesced, no-differential", name, m)
		}
	}
}
