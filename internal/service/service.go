// Package service implements bwserved: an HTTP/JSON API over the
// repository's bandwidth-analysis pipeline. A request names a program
// (mini-language source or a built-in kernel) and a machine model; the
// service answers with balance tables, optimization reports, and
// simulated cache statistics.
//
// The subsystem has four load-bearing parts:
//
//   - a bounded worker pool: at most Config.Workers analyses run
//     concurrently, every request carries a context deadline, and the
//     deadline is threaded down into internal/exec's execution loops
//     and internal/sim's trace replay, so a hostile or huge program is
//     cut off promptly (ErrCanceled) instead of wedging a worker;
//   - a content-addressed LRU result cache (internal/cache): the
//     pipeline is a pure function of source + machine + options, so
//     identical requests are answered from cache;
//   - telemetry (internal/telemetry): Prometheus text-format counters
//     and histograms on GET /metrics, plus structured JSON request
//     logging, plus a ring-buffered live history (request rate and
//     latency, cache hit rate, pass cost, worker occupancy) sampled in
//     the background and served as JSON (GET /v1/history) and as a
//     single-file SVG sparkline dashboard (GET /debug/dash);
//   - graceful shutdown: the http.Server built by cmd/bwserved drains
//     connections, then Close stops the history sampler and flushes
//     the JSON-lines request log; handlers observe cancellation via
//     their contexts.
//
// Endpoints: POST /v1/analyze, POST /v1/optimize, GET /v1/kernels,
// GET /v1/machines, GET /v1/passes, GET /v1/history, GET /healthz,
// GET /metrics, GET /debug/dash.
package service

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net/http"
	netpprof "net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/balance"
	"repro/internal/cache"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// Config tunes the service. Zero fields take the documented defaults.
type Config struct {
	// Workers caps concurrently executing analyses (default
	// GOMAXPROCS). Requests beyond it queue until a worker frees or
	// their deadline expires.
	Workers int
	// CacheEntries is the LRU result-cache capacity (default 256;
	// negative disables caching).
	CacheEntries int
	// DefaultTimeout is the per-request deadline when the client sends
	// none (default 15s); MaxTimeout caps client-requested deadlines
	// (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes caps the request body (default 1 MiB).
	MaxBodyBytes int64
	// MaxSteps is the exec step budget per program run (default 200
	// million loop iterations; negative disables). It bounds total work
	// even when a program makes progress fast enough to dodge the
	// deadline-based cutoff.
	MaxSteps int64
	// LogWriter receives structured JSON request logs (nil discards).
	LogWriter io.Writer
	// EnablePprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/. Off by default: the profile endpoints expose
	// internals and can themselves consume CPU, so operators opt in
	// (bwserved -pprof).
	EnablePprof bool
	// HistoryCapacity is the per-series ring-buffer size of the live
	// history (default 512 samples; at the default sampling interval
	// that is ~17 minutes of trend).
	HistoryCapacity int
	// SampleInterval is the cadence of the background history sampler.
	// Zero disables background sampling (history then only advances
	// via SampleNow — the mode tests use); cmd/bwserved passes 2s.
	SampleInterval time.Duration
	// MaxQueue caps requests waiting for a worker slot: arrivals that
	// would push the queue past it are shed with 503 + Retry-After
	// instead of piling up. Default 4×Workers; negative disables
	// admission control entirely.
	MaxQueue int
	// Faults is a server-wide chaos-injection set applied to every
	// request (see internal/faults). Nil — the production value — makes
	// every injection point a no-op.
	Faults *faults.Set
	// ChaosHeader additionally accepts a per-request fault spec in the
	// X-Chaos request header. Off by default; a server without it
	// rejects the header with 400 rather than silently ignoring it.
	ChaosHeader bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 15 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 200_000_000
	}
	if c.MaxSteps < 0 {
		c.MaxSteps = 0 // unlimited
	}
	if c.HistoryCapacity <= 0 {
		c.HistoryCapacity = 512
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.Workers
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0 // disabled
	}
	return c
}

// Server is the bwserved service state. Create with New; it is safe
// for concurrent use.
type Server struct {
	cfg   Config
	cache *cache.Cache
	reg   *telemetry.Registry
	log   *telemetry.Logger
	sem   chan struct{}
	start time.Time

	requests       *telemetry.CounterVec // {endpoint, code}
	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	programRuns    *telemetry.Counter
	passFailures   *telemetry.CounterVec   // {pass}
	stageSeconds   *telemetry.HistogramVec // {stage}
	requestSeconds *telemetry.HistogramVec // {endpoint}
	passDuration   *telemetry.HistogramVec // {pass}
	workersBusy    *telemetry.Gauge
	queueDepth     *telemetry.Gauge

	// Analysis and per-pass counters, accumulated from each optimize
	// run's transform.Outcome (see recordOutcome).
	analysisComputes *telemetry.CounterVec // {analysis}
	analysisSeconds  *telemetry.CounterVec // {analysis}
	passSeconds      *telemetry.CounterVec // {pass}
	passCheckpoints  *telemetry.CounterVec // {pass}

	// passTotals backs GET /v1/passes with cumulative per-pass and
	// per-analysis aggregates since process start.
	passTotals passTotals

	// Live history: ring-buffer time series sampled from the registry
	// and the caches, backing GET /v1/history and GET /debug/dash.
	history *telemetry.History
	// requestLatency is the one histogram every instrumented request
	// observes (stageSeconds{stage="request"}); the sampler derives
	// request rate and windowed mean latency from its sum/count.
	requestLatency *telemetry.Histogram
	// passSecondsSum/passRunsSum feed the windowed mean pass duration
	// series. They are standalone (unregistered) counters: /metrics
	// already carries the same data per pass.
	passSecondsSum telemetry.Counter
	passRunsSum    telemetry.Counter
	// cacheEntries/cacheEvictions mirror cache.Stats into /metrics at
	// scrape time (hit/miss counters are maintained inline).
	cacheEntries   *telemetry.Gauge
	cacheEvictions *telemetry.Gauge

	// Optimality-gap telemetry (see bounds.go): the per-kernel,
	// per-machine gauge exported on /metrics, the unregistered
	// sum/count pair behind the dashboard's windowed-mean gap
	// sparkline, and the best (smallest) gap observed per kernel since
	// process start, served by GET /v1/kernels as the current
	// best-known gap.
	optimalityGap *telemetry.GaugeVec // {kernel, machine}
	gapSum        telemetry.Counter
	gapCount      telemetry.Counter
	bestMu        sync.Mutex
	bestGaps      map[string]float64

	// Traffic-attribution telemetry (see profile.go): the per-kernel,
	// per-array, per-level gauge exported on /metrics, and the most
	// recent attribution per kernel behind the /debug/dash heatmap.
	arrayTraffic *telemetry.GaugeVec // {kernel, array, level}
	profMu       sync.Mutex
	lastProfiles map[string]*balance.ProfileSummary

	// Reuse-distance telemetry (see mrc.go): the per-kernel,
	// per-machine working-set-knee gauge exported on /metrics, and the
	// most recent curve per kernel behind the /debug/dash MRC panel.
	wsKnee   *telemetry.GaugeVec // {kernel, machine}
	mrcMu    sync.Mutex
	lastMRCs map[string]*balance.MRCResult

	// Overload-protection state (see overload.go): the singleflight
	// group coalescing identical in-flight requests, shed/coalesce/
	// degradation counters, and the EWMA of full-pipeline wall time
	// (float64 bits) that admission control prices queue waits with.
	flight       *flightGroup
	shed         *telemetry.Counter
	coalesced    *telemetry.Counter
	degraded     *telemetry.CounterVec // {level}
	faultsFired  *telemetry.GaugeVec   // {point}; mirrors cfg.Faults at scrape
	degradedAll  telemetry.Counter     // unregistered: feeds the history rate series
	pipeEWMABits atomic.Uint64

	// randFallbackOnce gates the one-time log line emitted when
	// crypto/rand fails and trace IDs fall back to a counter.
	randFallbackOnce sync.Once

	samplerStop chan struct{}
	closeOnce   sync.Once
	closeErr    error
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := telemetry.NewRegistry()
	s := &Server{
		cfg:   cfg,
		cache: cache.New(cfg.CacheEntries),
		reg:   reg,
		log:   telemetry.NewLogger(cfg.LogWriter),
		sem:   make(chan struct{}, cfg.Workers),
		start: time.Now(),

		requests: reg.NewCounterVec("bwserved_requests_total",
			"HTTP requests by endpoint and status code.", "endpoint", "code"),
		cacheHits: reg.NewCounter("bwserved_cache_hits_total",
			"Requests answered from the content-addressed result cache."),
		cacheMisses: reg.NewCounter("bwserved_cache_misses_total",
			"Requests that had to run the analysis pipeline."),
		programRuns: reg.NewCounter("bwserved_program_runs_total",
			"Program executions launched for measurement (one per balance.Measure call, whatever it observes)."),
		passFailures: reg.NewCounterVec("bwserved_pass_failures_total",
			"Optimizer passes skipped by the verified pipeline, by pass name.", "pass"),
		stageSeconds: reg.NewHistogramVec("bwserved_stage_seconds",
			"Latency by pipeline stage.", telemetry.DefaultLatencyBuckets, "stage"),
		requestSeconds: reg.NewHistogramVec("bwserved_request_seconds",
			"End-to-end request latency by endpoint.", telemetry.DefaultLatencyBuckets, "endpoint"),
		passDuration: reg.NewHistogramVec("bwserved_pass_duration_seconds",
			"Per-run optimizer pass wall time (one observation per pass per run).",
			telemetry.DefaultLatencyBuckets, "pass"),
		workersBusy: reg.NewGauge("bwserved_workers_busy",
			"Worker-pool slots currently executing an analysis."),
		queueDepth: reg.NewGauge("bwserved_queue_depth",
			"Requests waiting for a worker-pool slot."),

		analysisComputes: reg.NewCounterVec("bwserved_analysis_computes_total",
			"Analysis computes by optimize runs, by analysis name.", "analysis"),
		analysisSeconds: reg.NewCounterVec("bwserved_analysis_compute_seconds_total",
			"Wall time spent computing analyses, by analysis name.", "analysis"),
		passSeconds: reg.NewCounterVec("bwserved_pass_seconds_total",
			"Wall time spent in optimizer passes (including verification), by pass name.", "pass"),
		passCheckpoints: reg.NewCounterVec("bwserved_pass_checkpoints_total",
			"Verified checkpoints committed by optimizer passes, by pass name.", "pass"),

		cacheEntries: reg.NewGauge("bwserved_cache_entries",
			"Entries currently held by the content-addressed result cache."),
		cacheEvictions: reg.NewGauge("bwserved_cache_evictions",
			"Entries evicted from the result cache since process start."),

		shed: reg.NewCounter("bwserved_shed_total",
			"Requests shed by admission control (503 + Retry-After)."),
		coalesced: reg.NewCounter("bwserved_coalesced_total",
			"Requests answered by coalescing onto an identical in-flight request."),
		degraded: reg.NewCounterVec("bwserved_degraded_total",
			"Requests served below full service, by degradation-ladder level.", "level"),
		faultsFired: reg.NewGaugeVec("bwserved_fault_injections",
			"Chaos faults fired by the server-wide injection set, by point (always zero outside chaos runs).",
			"point"),
		optimalityGap: reg.NewGaugeVec("bwserved_optimality_gap",
			"Latest measured-traffic / lower-bound ratio per built-in kernel and machine (1.0 = provably minimal traffic).",
			"kernel", "machine"),
		arrayTraffic: reg.NewGaugeVec("bwserved_array_traffic_bytes",
			"Latest attributed channel bytes per built-in kernel, array and cache level (profiled requests only).",
			"kernel", "array", "level"),
		wsKnee: reg.NewGaugeVec("bwserved_ws_knee_bytes",
			"Latest working-set capacity knee per built-in kernel and the machine it was measured on, in bytes (-1 = the kernel's demand never meets that machine's balance; mrc requests only).",
			"kernel", "machine"),
		bestGaps:     map[string]float64{},
		lastProfiles: map[string]*balance.ProfileSummary{},
		lastMRCs:     map[string]*balance.MRCResult{},
	}
	s.passTotals.init()
	s.flight = newFlightGroup()
	s.requestLatency = s.stageSeconds.With("request")
	s.history = telemetry.NewHistory(cfg.HistoryCapacity)
	s.registerHistorySeries()
	s.samplerStop = make(chan struct{})
	if cfg.SampleInterval > 0 {
		go s.sampleLoop(cfg.SampleInterval)
	}
	return s
}

// sampleLoop drives the background history sampler until Close.
func (s *Server) sampleLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			s.history.Sample(now)
		case <-s.samplerStop:
			return
		}
	}
}

// SampleNow records one history sample immediately. The background
// sampler calls the same path on its ticker; tests and embedders call
// it directly for deterministic histories.
func (s *Server) SampleNow() { s.history.Sample(time.Now()) }

// History exposes the live history (for embedding the service into a
// larger process).
func (s *Server) History() *telemetry.History { return s.history }

// Close stops the background sampler and flushes the JSON-lines
// request log. cmd/bwserved calls it after the HTTP server has drained
// so every record of the final requests reaches stable storage. It is
// idempotent and safe to call concurrently — including with requests
// still in flight (their log lines may race the flush, but the logger
// itself is concurrency-safe) — and every call returns the first
// Close's error rather than a misleading nil.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.samplerStop)
		s.closeErr = s.log.Flush()
	})
	return s.closeErr
}

// rate converts a cumulative total into a per-second rate over the
// sampling window. The first sample reports zero (no window yet).
// Closures returned here are only ever called under the history lock,
// which serializes their internal state.
func rate(total func() float64) func() float64 {
	var prev float64
	var prevT time.Time
	return func() float64 {
		now := time.Now()
		cur := total()
		if prevT.IsZero() {
			prev, prevT = cur, now
			return 0
		}
		dt := now.Sub(prevT).Seconds()
		d := cur - prev
		prev, prevT = cur, now
		if dt <= 0 || d < 0 {
			return 0
		}
		return d / dt
	}
}

// windowedMean converts cumulative sum and count totals into the mean
// per event over the sampling window, scaled (e.g. 1000 for ms). A
// window with no events repeats the last mean, keeping sparklines
// continuous across idle stretches.
func windowedMean(sum, count func() float64, scale float64) func() float64 {
	var prevSum, prevCount, last float64
	return func() float64 {
		cs, cc := sum(), count()
		dc := cc - prevCount
		if dc > 0 {
			last = (cs - prevSum) / dc * scale
		}
		prevSum, prevCount = cs, cc
		return last
	}
}

// registerHistorySeries wires the dashboard's time series to the live
// counters: request rate and latency, result-cache behavior, optimizer
// pass cost, and worker-pool pressure.
func (s *Server) registerHistorySeries() {
	s.history.AddSeries("requests_per_sec", "Instrumented HTTP requests per second.", "req/s",
		rate(func() float64 { return float64(s.requestLatency.Count()) }))
	s.history.AddSeries("request_latency_ms", "Mean request latency over the sampling window.", "ms",
		windowedMean(s.requestLatency.Sum,
			func() float64 { return float64(s.requestLatency.Count()) }, 1000))
	s.history.AddSeries("cache_hit_rate", "Result-cache hit ratio over the sampling window.", "ratio",
		func() func() float64 {
			var prevHits, prevMiss, last float64
			return func() float64 {
				st := s.cache.Stats()
				h, m := float64(st.Hits), float64(st.Misses)
				if d := (h - prevHits) + (m - prevMiss); d > 0 {
					last = (h - prevHits) / d
				}
				prevHits, prevMiss = h, m
				return last
			}
		}())
	s.history.AddSeries("pass_ms", "Mean optimizer pass wall time over the sampling window.", "ms",
		windowedMean(s.passSecondsSum.Value, s.passRunsSum.Value, 1000))
	s.history.AddSeries("workers_busy", "Worker-pool slots executing an analysis.", "workers",
		s.workersBusy.Value)
	s.history.AddSeries("queue_depth", "Requests waiting for a worker-pool slot.", "requests",
		s.queueDepth.Value)
	s.history.AddSeries("cache_entries", "Entries held by the result cache.", "entries",
		func() float64 { return float64(s.cache.Stats().Len) })
	s.history.AddSeries("shed_per_sec", "Requests shed by admission control per second.", "req/s",
		rate(s.shed.Value))
	s.history.AddSeries("coalesced_per_sec", "Requests coalesced onto in-flight identical requests per second.", "req/s",
		rate(s.coalesced.Value))
	s.history.AddSeries("degraded_per_sec", "Requests served below full service per second.", "req/s",
		rate(s.degradedAll.Value))
	s.history.AddSeries("optimality_gap", "Mean optimality gap (measured traffic / lower bound) of bound-carrying responses over the sampling window.", "x",
		windowedMean(s.gapSum.Value, s.gapCount.Value, 1))
}

// CacheStats returns a snapshot of the result cache's counters.
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.instrument("/v1/analyze", s.handleAnalyze))
	mux.HandleFunc("POST /v1/optimize", s.instrument("/v1/optimize", s.handleOptimize))
	mux.HandleFunc("GET /v1/kernels", s.instrument("/v1/kernels", s.handleKernels))
	mux.HandleFunc("GET /v1/machines", s.instrument("/v1/machines", s.handleMachines))
	mux.HandleFunc("GET /v1/passes", s.instrument("/v1/passes", s.handlePasses))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /v1/history", s.instrument("/v1/history", s.handleHistory))
	mux.HandleFunc("GET /debug/dash", s.handleDash) // not instrumented: the auto-refreshing dashboard must not skew request metrics
	mux.HandleFunc("GET /metrics", s.handleMetrics) // not instrumented: scrapes must not perturb request metrics
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	}
	return mux
}

// acquire claims a worker-pool slot, waiting until one frees or ctx is
// done. The returned release function is idempotent.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	s.queueDepth.Add(1)
	defer s.queueDepth.Add(-1)
	select {
	case s.sem <- struct{}{}:
		s.workersBusy.Add(1)
		// Chaos testing: stall while holding the slot — the shape of a
		// worker wedged on a slow dependency. Queue growth and shedding
		// must absorb it; cancellation cuts the stall short.
		faults.Sleep(ctx, faults.WorkerStall)
		var once sync.Once
		return func() {
			once.Do(func() {
				s.workersBusy.Add(-1)
				<-s.sem
			})
		}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// traceIDKey indexes the per-request trace ID in a request context.
type traceIDKey struct{}

// randRead is crypto/rand.Read behind a test seam, so the fallback
// path below can be exercised deterministically.
var randRead = rand.Read

// traceIDCounter backs the fallback trace-ID space when crypto/rand
// fails: IDs must stay unique (logs and traces are joined on them)
// even when they can no longer be random.
var traceIDCounter atomic.Uint64

// newTraceID returns a 16-hex-digit request identifier: random when
// the system entropy source works, counter-derived (top bit set, so
// the two spaces cannot collide) when it does not. The degradation is
// logged once per process, not per request.
func (s *Server) newTraceID() string {
	var b [8]byte
	if _, err := randRead(b[:]); err != nil {
		s.randFallbackOnce.Do(func() {
			s.log.Log(map[string]any{
				"event": "trace_id_fallback",
				"error": err.Error(),
				"note":  "crypto/rand failed; trace IDs are counter-derived until restart",
			})
		})
		binary.BigEndian.PutUint64(b[:], traceIDCounter.Add(1)|1<<63)
	}
	return hex.EncodeToString(b[:])
}

// TraceID returns the request's trace ID stamped at ingress, or "".
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// instrument wraps a handler with request counting, latency
// observation and structured logging. Every request is stamped with a
// trace ID at ingress: returned in the X-Trace-Id response header,
// carried in the request context (TraceID), and written to the JSON
// request log — so a slow log line, a /metrics latency spike and an
// inline span tree can all be joined on one identifier.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.newTraceID()
		w.Header().Set("X-Trace-Id", id)
		ctx := context.WithValue(r.Context(), traceIDKey{}, id)
		if s.cfg.Faults != nil {
			// Server-wide chaos set: every request observes it (a
			// per-request X-Chaos header shadows it later).
			ctx = faults.With(ctx, s.cfg.Faults)
		}
		r = r.WithContext(ctx)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		begin := time.Now()
		h(rec, r)
		dur := time.Since(begin)
		s.requests.With(endpoint, itoa(rec.status)).Inc()
		s.stageSeconds.With("request").Observe(dur.Seconds())
		s.requestSeconds.With(endpoint).Observe(dur.Seconds())
		s.log.Log(map[string]any{
			"method":   r.Method,
			"path":     endpoint,
			"status":   rec.status,
			"dur_ms":   float64(dur.Microseconds()) / 1000,
			"remote":   r.RemoteAddr,
			"cache":    rec.Header().Get("X-Cache"),
			"trace_id": id,
		})
	}
}

func itoa(code int) string {
	// Tiny, allocation-free int→string for status codes.
	if code >= 100 && code < 1000 {
		return string([]byte{byte('0' + code/100), byte('0' + code/10%10), byte('0' + code%10)})
	}
	return "???"
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Mirror live cache stats into gauges lazily at scrape time: the
	// entry and eviction numbers live inside internal/cache, so they
	// are sampled rather than maintained inline like hits/misses.
	st := s.cache.Stats()
	s.cacheEntries.Set(float64(st.Len))
	s.cacheEvictions.Set(float64(st.Evictions))
	// Mirror the server-wide chaos set's fire counts the same way.
	// Per-request X-Chaos sets are ephemeral and not reported here.
	if s.cfg.Faults != nil {
		for point, fired := range s.cfg.Faults.Counts() {
			s.faultsFired.With(point).Set(float64(fired))
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}
