// Package client is a resilient Go client for the bwserved HTTP API.
// It wraps the service's /v1/analyze and /v1/optimize endpoints with
// the client-side half of the overload contract that
// internal/service's admission control implements on the server side:
//
//   - bounded retries with exponential backoff and full jitter, so a
//     retrying fleet spreads out instead of synchronizing into waves;
//   - Retry-After honoring: a 503 shed tells the client when capacity
//     is expected back, and the client believes it rather than
//     retrying on its own (shorter) schedule;
//   - per-attempt timeouts, so one black-holed connection costs one
//     attempt, not the whole call budget;
//   - a consecutive-failure circuit breaker: after Threshold failed
//     attempts in a row the client fails fast without touching the
//     network, probing again (half-open) after a cooldown.
//
// The returned Meta reports what the call cost (attempts, sheds
// encountered) and what the service delivered (cache hit, coalesced
// onto another request, degradation level), so load generators and
// operators can see the resilience machinery working.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
)

// Config tunes a Client. Zero fields take the documented defaults.
type Config struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient overrides the transport (default http.DefaultClient;
	// tests pass the httptest server's client).
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call, first attempt included
	// (default 4).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff schedule: attempt k
	// waits a uniformly random duration in (0, BaseBackoff·2^k],
	// capped at MaxBackoff — "full jitter" (defaults 100ms, 5s). A 503
	// Retry-After above the jittered wait replaces it.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// AttemptTimeout is the per-attempt deadline (default 30s; the
	// call's ctx still bounds the whole call, backoffs included).
	AttemptTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker (default 5; negative disables the breaker).
	// BreakerCooldown is how long an open breaker rejects calls before
	// letting one probe through (default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Chaos, when non-empty, is sent as the X-Chaos header on every
	// request (per-request fault injection; the server must run with
	// -chaos-header).
	Chaos string
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	return c
}

// Meta reports how one call went: what it cost and what service level
// the server delivered.
type Meta struct {
	// Status is the final HTTP status (0 if no attempt got a response).
	Status int
	// Attempts is the number of HTTP attempts made (≥ 1 unless the
	// breaker rejected the call outright).
	Attempts int
	// Sheds counts 503 responses encountered across attempts.
	Sheds int
	// Cached/Coalesced/Degraded describe the successful response:
	// answered from the result cache, shared from an identical
	// in-flight request, or served below full service (Degraded is the
	// ladder-rung name, "" at full service).
	Cached    bool
	Coalesced bool
	Degraded  string
	// TraceID is the X-Trace-Id of the last response.
	TraceID string
}

// StatusError is a terminal non-2xx outcome: either non-retryable
// (4xx) or still failing when the attempt budget ran out.
type StatusError struct {
	Code    int
	Message string
	// RetryAfter is the server's backoff hint on a 503, zero otherwise.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Code, e.Message)
}

// ErrBreakerOpen is returned (wrapped) when the circuit breaker
// rejects a call without touching the network.
var ErrBreakerOpen = errors.New("circuit breaker open")

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Client is a resilient bwserved API client. Safe for concurrent use.
type Client struct {
	cfg Config

	mu       sync.Mutex
	state    breakerState
	failures int       // consecutive failed attempts
	openedAt time.Time // when the breaker last opened
	opens    int64     // cumulative opens (for load reports)
	probing  bool      // a half-open probe is in flight
}

// New builds a Client for the server at cfg.BaseURL.
func New(cfg Config) *Client {
	return &Client{cfg: cfg.withDefaults()}
}

// BreakerState reports the breaker position ("closed", "open",
// "half-open") and how often it has opened since the client was built.
func (c *Client) BreakerState() (state string, opens int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breakerNow().String(), c.opens
}

// breakerNow resolves time-based transitions (open → half-open after
// the cooldown). Called with c.mu held.
func (c *Client) breakerNow() breakerState {
	if c.state == breakerOpen && time.Since(c.openedAt) >= c.cfg.BreakerCooldown {
		c.state = breakerHalfOpen
		c.probing = false
	}
	return c.state
}

// breakerAllow decides whether an attempt may touch the network. In
// half-open exactly one probe is admitted; its outcome closes or
// re-opens the breaker.
func (c *Client) breakerAllow() error {
	if c.cfg.BreakerThreshold < 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.breakerNow() {
	case breakerOpen:
		return fmt.Errorf("%w (retry in %v)", ErrBreakerOpen,
			(c.cfg.BreakerCooldown - time.Since(c.openedAt)).Round(time.Millisecond))
	case breakerHalfOpen:
		if c.probing {
			return fmt.Errorf("%w (probe in flight)", ErrBreakerOpen)
		}
		c.probing = true
	}
	return nil
}

// breakerRecord folds one attempt's outcome into the breaker.
func (c *Client) breakerRecord(ok bool) {
	if c.cfg.BreakerThreshold < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.state = breakerClosed
		c.failures = 0
		c.probing = false
		return
	}
	c.failures++
	if c.state == breakerHalfOpen || c.failures >= c.cfg.BreakerThreshold {
		if c.state != breakerOpen {
			c.opens++
		}
		c.state = breakerOpen
		c.openedAt = time.Now()
		c.probing = false
	}
}

// backoff returns the full-jitter wait before attempt k+1, floored by
// the server's Retry-After hint when one was given.
func (c *Client) backoff(k int, retryAfter time.Duration) time.Duration {
	max := c.cfg.BaseBackoff << k
	if max > c.cfg.MaxBackoff || max <= 0 {
		max = c.cfg.MaxBackoff
	}
	d := time.Duration(rand.Int64N(int64(max)) + 1)
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// Analyze calls POST /v1/analyze.
func (c *Client) Analyze(ctx context.Context, req *service.AnalyzeRequest) (*service.AnalyzeResponse, Meta, error) {
	var resp service.AnalyzeResponse
	meta, err := c.do(ctx, "/v1/analyze", req, &resp, &resp.ResponseMeta)
	if err != nil {
		return nil, meta, err
	}
	return &resp, meta, nil
}

// Optimize calls POST /v1/optimize.
func (c *Client) Optimize(ctx context.Context, req *service.OptimizeRequest) (*service.OptimizeResponse, Meta, error) {
	var resp service.OptimizeResponse
	meta, err := c.do(ctx, "/v1/optimize", req, &resp, &resp.ResponseMeta)
	if err != nil {
		return nil, meta, err
	}
	return &resp, meta, nil
}

// retryable reports whether a status is worth another attempt: sheds
// (503) and server-side trouble (5xx, 504) may clear; client errors
// (4xx) will not.
func retryable(status int) bool { return status >= 500 }

// do runs the retry loop for one logical call. On success out holds
// the response and env, its embedded envelope, fills meta's
// service-level fields.
func (c *Client) do(ctx context.Context, path string, req, out any, env *service.ResponseMeta) (Meta, error) {
	var meta Meta
	body, err := json.Marshal(req)
	if err != nil {
		return meta, fmt.Errorf("client: encoding request: %w", err)
	}
	var last error
	for k := 0; k < c.cfg.MaxAttempts; k++ {
		if err := ctx.Err(); err != nil {
			return meta, err
		}
		if err := c.breakerAllow(); err != nil {
			if last != nil {
				return meta, fmt.Errorf("%w (last error: %v)", err, last)
			}
			return meta, err
		}
		meta.Attempts++
		status, retryAfter, err := c.attempt(ctx, path, body, out, &meta)
		c.breakerRecord(err == nil)
		if err == nil {
			meta.Cached, meta.Coalesced = env.Cached, env.Coalesced
			if env.Degraded != nil {
				meta.Degraded = env.Degraded.Mode
			}
			return meta, nil
		}
		last = err
		if status == http.StatusServiceUnavailable {
			meta.Sheds++
		}
		if status != 0 && !retryable(status) {
			return meta, err // 4xx: retrying cannot help
		}
		if k == c.cfg.MaxAttempts-1 {
			break
		}
		select {
		case <-time.After(c.backoff(k, retryAfter)):
		case <-ctx.Done():
			return meta, ctx.Err()
		}
	}
	return meta, fmt.Errorf("client: %d attempts exhausted: %w", meta.Attempts, last)
}

// attempt performs one HTTP round trip under the per-attempt timeout.
// It returns the response status (0 for transport errors) and any
// Retry-After hint alongside the error.
func (c *Client) attempt(ctx context.Context, path string, body []byte, out any, meta *Meta) (int, time.Duration, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost,
		strings.TrimRight(c.cfg.BaseURL, "/")+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, fmt.Errorf("client: building request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.cfg.Chaos != "" {
		hreq.Header.Set("X-Chaos", c.cfg.Chaos)
	}
	hresp, err := c.cfg.HTTPClient.Do(hreq)
	if err != nil {
		return 0, 0, fmt.Errorf("client: %w", err)
	}
	defer hresp.Body.Close()
	meta.Status = hresp.StatusCode
	if id := hresp.Header.Get("X-Trace-Id"); id != "" {
		meta.TraceID = id
	}
	data, err := io.ReadAll(io.LimitReader(hresp.Body, 16<<20))
	if err != nil {
		return hresp.StatusCode, 0, fmt.Errorf("client: reading response: %w", err)
	}
	if hresp.StatusCode != http.StatusOK {
		se := &StatusError{Code: hresp.StatusCode}
		if secs, err := strconv.Atoi(hresp.Header.Get("Retry-After")); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
		var e service.ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			se.Message = e.Error
		} else {
			se.Message = strings.TrimSpace(string(data))
		}
		return hresp.StatusCode, se.RetryAfter, se
	}
	if err := json.Unmarshal(data, out); err != nil {
		return hresp.StatusCode, 0, fmt.Errorf("client: decoding response: %w", err)
	}
	return hresp.StatusCode, 0, nil
}
