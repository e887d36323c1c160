// Command bwserved serves the bandwidth-analysis pipeline over
// HTTP/JSON: balance reports, verified optimization, and simulated
// cache statistics for mini-language programs or built-in kernels.
//
// Usage:
//
//	bwserved [-addr :8080] [-workers N] [-cache-entries N] \
//	         [-timeout 15s] [-max-timeout 60s] [-max-body 1048576] \
//	         [-max-steps 200000000] [-drain 10s] [-quiet] [-pprof] \
//	         [-sample-every 2s] [-history-samples 512] \
//	         [-max-queue N] [-chaos spec] [-chaos-header]
//
// Endpoints:
//
//	POST /v1/analyze   balance report (+ optional Belady replay);
//	                   "trace": true returns the span tree inline
//	POST /v1/optimize  verified optimizer pipeline, before/after balance
//	                   (accepts "pipeline": an explicit pass string and
//	                   "trace": true for the inline span tree)
//	GET  /v1/kernels   built-in kernel registry
//	GET  /v1/passes    pass registry + cumulative pass stats and
//	                   analysis compute counts
//	GET  /healthz      liveness, build info (Go version, start time,
//	                   kernel/pass counts) + cache stats
//	GET  /metrics      Prometheus text-format metrics (request and
//	                   per-pass latency histograms, analysis compute
//	                   counts and seconds, result-cache
//	                   entry/eviction gauges)
//	GET  /v1/history   ring-buffered time series of the live metrics
//	                   (request rate/latency, cache hit rate, pass
//	                   cost, worker occupancy), sampled -sample-every
//	GET  /debug/dash   single-file live dashboard: inline SVG
//	                   sparklines over /v1/history, no external assets
//	GET  /debug/pprof  net/http/pprof profiles (only with -pprof)
//
// Every response carries an X-Trace-Id header; the same ID appears as
// "trace_id" in the JSON request log, so slow requests can be joined
// to their log lines and inline traces.
//
// Overload protection is always on: identical concurrent requests are
// coalesced onto one pipeline run, requests the queue cannot absorb
// are shed with 503 + Retry-After (-max-queue caps the queue; default
// 4×workers, negative disables), and requests whose deadline cannot
// fit the full pipeline are served degraded (response field
// "degraded", header X-Degraded). Chaos testing is opt-in: -chaos
// installs a server-wide fault-injection spec (see internal/faults;
// e.g. 'pass.panic:nth=3;analysis.slow:rate=0.1,delay=50ms') and
// -chaos-header additionally accepts a per-request spec in the
// X-Chaos request header. Never enable either in production.
//
// Example:
//
//	curl -s localhost:8080/v1/analyze \
//	     -d '{"kernel":"sec21","n":65536}' | jq .balance.text
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests for up to -drain before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrent analyses (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache-entries", 256, "result-cache capacity (negative disables)")
	timeout := flag.Duration("timeout", 15*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
	maxBody := flag.Int64("max-body", 1<<20, "request body size cap in bytes")
	maxSteps := flag.Int64("max-steps", 200_000_000, "per-run loop-iteration budget (negative disables)")
	drain := flag.Duration("drain", 10*time.Second, "connection-drain window on shutdown")
	quiet := flag.Bool("quiet", false, "suppress request logs")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	sampleEvery := flag.Duration("sample-every", 2*time.Second, "live-history sampling interval (0 disables /v1/history sampling)")
	historySamples := flag.Int("history-samples", 512, "live-history ring-buffer capacity per series")
	maxQueue := flag.Int("max-queue", 0, "max requests waiting for a worker before shedding (0 = 4×workers, negative disables)")
	chaosSpec := flag.String("chaos", "", "server-wide fault-injection spec, e.g. 'pass.panic:nth=3;analysis.slow:rate=0.1,delay=50ms' (chaos testing only)")
	chaosHeader := flag.Bool("chaos-header", false, "accept per-request fault specs in the X-Chaos header (chaos testing only)")
	flag.Parse()

	chaos, err := faults.Parse(*chaosSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bwserved: -chaos:", err)
		os.Exit(2)
	}
	if chaos != nil {
		fmt.Fprintf(os.Stderr, "bwserved: CHAOS MODE: injecting faults: %s\n", chaos)
	}

	var logw io.Writer = os.Stderr
	if *quiet {
		logw = nil
	}
	srv := service.New(service.Config{
		Workers:         *workers,
		CacheEntries:    *cacheEntries,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		MaxBodyBytes:    *maxBody,
		MaxSteps:        *maxSteps,
		LogWriter:       logw,
		EnablePprof:     *pprofFlag,
		SampleInterval:  *sampleEvery,
		HistoryCapacity: *historySamples,
		MaxQueue:        *maxQueue,
		Faults:          chaos,
		ChaosHeader:     *chaosHeader,
	})

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "bwserved listening on %s\n", *addr)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "bwserved:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Drain: stop accepting, let in-flight requests finish.
	fmt.Fprintln(os.Stderr, "bwserved: shutting down, draining connections")
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "bwserved: shutdown:", err)
		os.Exit(1)
	}
	// After the last request drains: stop the history sampler and
	// flush the JSON-lines request log to stable storage.
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "bwserved: close:", err)
		os.Exit(1)
	}
}
