package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/service"
	"repro/internal/trace"
)

// serveClients is the number of closed-loop clients: one per CPU of
// the two-CPU machines the benchmark is sized for.
const serveClients = 2

// The request mix is a repeating block with a fixed composition; the
// seed orders each block and picks its programs, so any stretch of a
// run sees the same mix whatever the seed. Of every 40 requests, 18
// repeat one of the last recentRequests requests exactly (cache
// reads), 6 are blank- or comment-line variants of an earlier inline
// program, and 16 are cold (cache writes): 8 plain analyze, 3 full
// analyze and 5 optimize requests.
var mixBlock = func() []string {
	var b []string
	for _, part := range []struct {
		slot  string
		count int
	}{{"repeat", 18}, {"variant", 6}, {"analyze", 8}, {"analyze-full", 3}, {"optimize", 5}} {
		for i := 0; i < part.count; i++ {
			b = append(b, part.slot)
		}
	}
	return b
}()

// coldKinds are the request kinds, in the order warm-up sends them.
var coldKinds = []string{"analyze", "analyze-full", "optimize"}

const recentRequests = 64

// fanoutMachines are the machines of an analyze-full request.
var fanoutMachines = []string{"Origin2000", "SkylakeSP", "A64FX"}

// serveKernels are the built-ins cold requests draw from, each at 24
// sizes from base upward in steps of step. Probe and warm-up requests
// use sizes outside these series, so they always run cold.
var serveKernels = []struct {
	name       string
	base, step int
	build      func(n int) *ir.Program
}{
	{"fig7", 4096, 512, kernels.Fig7Original},
	{"sec21", 4096, 512, kernels.Sec21Pair},
	{"conv", 4096, 512, kernels.Convolution},
	{"fig8", 4096, 512, kernels.Fig8Workload},
	{"fig6a", 16, 2, kernels.Fig6Original},
	{"dmxpy", 32, 2, kernels.Dmxpy},
	{"sp", 8, 1, kernels.SP},
	{"sweep3d", 8, 1, func(n int) *ir.Program { return kernels.Sweep3D(n, 6) }},
}

const sizesPerKernel = 24

// request is one generated request; the trace flag is set when sent.
type request struct {
	kind string // analyze, analyze-full or optimize
	prog service.ProgramRequest
}

func (r request) path() string {
	if r.kind == "optimize" {
		return "/v1/optimize"
	}
	return "/v1/analyze"
}

func (r request) body(traced bool) ([]byte, error) {
	p := r.prog
	p.Trace = traced
	switch r.kind {
	case "optimize":
		return json.Marshal(service.OptimizeRequest{ProgramRequest: p})
	case "analyze-full":
		p.Profile, p.MRC = true, true
		return json.Marshal(service.AnalyzeRequest{ProgramRequest: p, Machines: fanoutMachines, Belady: true})
	}
	return json.Marshal(service.AnalyzeRequest{ProgramRequest: p})
}

// requestGen produces the seeded request sequence. The sequence is a
// function of the seed alone; which client sends which request is not.
type requestGen struct {
	mu     sync.Mutex
	rng    *rand.Rand
	block  []string                            // the current block's slots, in seeded order
	cold   map[string][]service.ProgramRequest // per kind, in seeded order
	next   map[string]int
	recent []request // the last recentRequests requests
	inline []request // the last recentRequests inline-program requests
}

// newRequestGen orders each kind's cold programs in rounds that visit
// every serve kernel once, in a seeded order, each visit taking the
// kernel's next size and form from its own seeded list. Any run of
// cold requests of one kind is thereby balanced across kernels.
func newRequestGen(seed uint64) *requestGen {
	g := &requestGen{
		rng:  rand.New(rand.NewPCG(seed, 0x5e7e)),
		cold: map[string][]service.ProgramRequest{},
		next: map[string]int{},
	}
	for _, kind := range coldKinds {
		perKernel := make([][]service.ProgramRequest, len(serveKernels))
		for ki, k := range serveKernels {
			for i := 0; i < sizesPerKernel; i++ {
				n := k.base + i*k.step
				perKernel[ki] = append(perKernel[ki],
					service.ProgramRequest{Kernel: k.name, N: n},
					service.ProgramRequest{Program: k.build(n).String()})
			}
			list := perKernel[ki]
			g.rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		}
		order := make([]int, len(serveKernels))
		for round := 0; round < 2*sizesPerKernel; round++ {
			for i := range order {
				order[i] = i
			}
			g.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, ki := range order {
				g.cold[kind] = append(g.cold[kind], perKernel[ki][round])
			}
		}
	}
	return g
}

func (g *requestGen) nextRequest() request {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.block) == 0 {
		g.block = append(g.block, mixBlock...)
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	slot := g.block[0]
	g.block = g.block[1:]
	var r request
	switch {
	case slot == "repeat" && len(g.recent) > 0:
		return g.recent[g.rng.IntN(len(g.recent))]
	case slot == "variant" && len(g.inline) > 0:
		r = g.inline[g.rng.IntN(len(g.inline))]
		r.prog.Program = variant(r.prog.Program, g.rng)
	default:
		r.kind = slot
		if slot == "repeat" || slot == "variant" {
			r.kind = "analyze" // no history yet
		}
		list := g.cold[r.kind]
		r.prog = list[g.next[r.kind]%len(list)]
		g.next[r.kind]++
	}
	g.recent = pushRecent(g.recent, r)
	if r.prog.Program != "" {
		g.inline = pushRecent(g.inline, r)
	}
	return r
}

func pushRecent(list []request, r request) []request {
	if len(list) == recentRequests {
		list = list[1:]
	}
	return append(list, r)
}

// variant returns src with one to three blank or comment lines
// inserted, a change that leaves the program itself unchanged.
func variant(src string, rng *rand.Rand) string {
	lines := strings.Split(src, "\n")
	for k := 1 + rng.IntN(3); k > 0; k-- {
		at := rng.IntN(len(lines) + 1)
		extra := ""
		if rng.IntN(2) == 0 {
			extra = fmt.Sprintf("# note %d", rng.IntN(1<<20))
		}
		lines = append(lines[:at], append([]string{extra}, lines[at:]...)...)
	}
	return strings.Join(lines, "\n")
}

// serveWorkload drives an in-process bwserved over loopback HTTP with
// serveClients closed-loop clients.
type serveWorkload struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	gen    *requestGen
	// Counters of the last measured loop.
	requests               int
	coalesced, shed        atomic.Int64
	cacheHits, cacheMisses int64
}

func (w *serveWorkload) tailPercentile() float64 { return 99.5 }

func (w *serveWorkload) setup(ctx context.Context, seed uint64) error {
	w.close()
	w.srv = service.New(service.Config{})
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
	}
	w.gen = newRequestGen(seed)
	// Warm-up: one request of each kind for each kernel, two steps
	// below its series, a size no other request uses.
	for _, k := range serveKernels {
		for _, kind := range coldKinds {
			r := request{kind: kind, prog: service.ProgramRequest{Kernel: k.name, N: k.base - 2*k.step}}
			if _, err := w.call(ctx, r, false); err != nil {
				return fmt.Errorf("warm-up %s %s: %w", kind, k.name, err)
			}
		}
	}
	return nil
}

func (w *serveWorkload) close() {
	if w.ts != nil {
		w.client.CloseIdleConnections()
		w.ts.Close()
		_ = w.srv.Close() // flushes a request log, and this server has none
		w.ts, w.srv = nil, nil
	}
}

func (w *serveWorkload) measure(ctx context.Context, d time.Duration, traced bool, rec *recorder) error {
	w.coalesced.Store(0)
	w.shed.Store(0)
	before := w.srv.CacheStats()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(rec.start) < d {
				w.request(ctx, w.gen.nextRequest(), traced, rec)
			}
		}()
	}
	wg.Wait()
	rec.wall = time.Since(rec.start)
	w.requests = rec.ops()
	after := w.srv.CacheStats()
	w.cacheHits, w.cacheMisses = after.Hits-before.Hits, after.Misses-before.Misses
	return nil
}

// request is one op: it sends r, checks the response and records both.
func (w *serveWorkload) request(ctx context.Context, r request, traced bool, rec *recorder) {
	body, err := r.body(traced)
	if err != nil {
		rec.op("", 0, err)
		return
	}
	begin := time.Now()
	status, data, err := w.post(ctx, r.path(), body)
	elapsed := time.Since(begin)
	if status == http.StatusServiceUnavailable {
		w.shed.Add(1)
	}
	var out *checked
	if err == nil {
		out, err = checkResponse(r, data)
	}
	rec.op("", elapsed, err)
	if out == nil {
		return
	}
	if out.degraded {
		rec.degrade()
	}
	if out.coalesced {
		w.coalesced.Add(1)
	}
	if traced {
		hn := &trace.Node{Name: "http.POST " + r.path(), DurUS: float64(elapsed.Nanoseconds()) / 1e3, Children: out.trace}
		rec.ledger.add(&trace.Node{Name: opSpan, DurUS: hn.DurUS,
			Attrs: map[string]any{"program": r.kind}, Children: []*trace.Node{hn}})
	}
}

// call sends r outside the measured loop and returns the response body.
func (w *serveWorkload) call(ctx context.Context, r request, traced bool) ([]byte, error) {
	body, err := r.body(traced)
	if err != nil {
		return nil, err
	}
	_, data, err := w.post(ctx, r.path(), body)
	return data, err
}

// post sends one request and reads the whole response; a status other
// than 2xx is an error.
func (w *serveWorkload) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, data, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, data, nil
}

// checked is what the output check extracts from one response.
type checked struct {
	degraded, coalesced bool
	trace               []*trace.Node
}

// checkResponse applies the serve-mixed output checks: every bounds
// block has bound <= measured, every MRC level matches the fixed-size
// simulation, and optimized source re-parses.
func checkResponse(r request, data []byte) (*checked, error) {
	if r.kind == "optimize" {
		var resp service.OptimizeResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return nil, fmt.Errorf("optimize response: %w", err)
		}
		if _, err := lang.Parse(resp.Optimized); err != nil {
			return nil, fmt.Errorf("optimized source does not re-parse: %w", err)
		}
		if err := checkBounds(resp.Bounds); err != nil {
			return nil, err
		}
		return &checked{resp.Degraded != nil, resp.Coalesced, resp.Trace}, nil
	}
	var resp service.AnalyzeResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("analyze response: %w", err)
	}
	if err := checkBounds(resp.Bounds); err != nil {
		return nil, err
	}
	for _, ma := range resp.Machines {
		if err := checkBounds(ma.Bounds); err != nil {
			return nil, fmt.Errorf("%s: %w", ma.Machine, err)
		}
	}
	if resp.MRC != nil {
		for _, lv := range resp.MRC.Levels {
			if !lv.MatchesFixed {
				return nil, fmt.Errorf("MRC level %s does not match the fixed-size simulation", lv.Name)
			}
		}
	} else if r.kind == "analyze-full" && resp.Degraded == nil {
		return nil, fmt.Errorf("full analyze response has no mrc block")
	}
	return &checked{resp.Degraded != nil, resp.Coalesced, resp.Trace}, nil
}

func checkBounds(b *service.BoundsSummary) error {
	if b != nil && b.BoundBytes > b.MeasuredBytes {
		return fmt.Errorf("lower bound %d exceeds measured traffic %d", b.BoundBytes, b.MeasuredBytes)
	}
	return nil
}

// check is a no-op: every response was checked as it arrived.
func (w *serveWorkload) check(context.Context, *recorder) error { return nil }

// probePrograms are the fixed programs behind the deterministic
// metrics and the layer probes: each serve kernel one step below its
// series, so no measured request shares their cache entries.
func probePrograms() []service.ProgramRequest {
	var out []service.ProgramRequest
	for _, k := range serveKernels {
		out = append(out, service.ProgramRequest{Kernel: k.name, N: k.base - k.step})
	}
	return out
}

// finish analyzes every probe program through the service and reports
// their summed slow-memory traffic on Origin2000 and the geometric mean
// of their bounds gaps. Both are deterministic.
func (w *serveWorkload) finish(ctx context.Context, m metrics) error {
	var total int64
	var gaps []float64
	for _, p := range probePrograms() {
		data, err := w.call(ctx, request{kind: "analyze", prog: p}, false)
		if err != nil {
			return err
		}
		var resp service.AnalyzeResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		if resp.Bounds == nil {
			return fmt.Errorf("%s: analyze response has no bounds block", p.Kernel)
		}
		total += resp.Bounds.MeasuredBytes
		gaps = append(gaps, resp.Bounds.Gap)
	}
	m.set("sim_mem_bytes", float64(total))
	m.set("opt_gap_geomean", geomean(gaps))
	return nil
}

// probe adds the service counters of the traced loop, the program
// executions per analyze request, and direct timings of the layers a
// request passes through that the service's spans do not cover.
func (w *serveWorkload) probe(ctx context.Context, m metrics) error {
	if w.requests > 0 {
		m.set("service.coalesced_frac", float64(w.coalesced.Load())/float64(w.requests))
		m.set("service.shed_frac", float64(w.shed.Load())/float64(w.requests))
	}
	if n := w.cacheHits + w.cacheMisses; n > 0 {
		m.set("cache.hit_frac", float64(w.cacheHits)/float64(n))
	}
	if err := w.probeRuns(ctx, m); err != nil {
		return err
	}
	var sources []string
	for _, pr := range probePrograms() {
		sources = append(sources, kernelSource(pr))
	}
	_, err := callProbe(ctx, sources, m)
	return err
}

// probeRuns sends one plain and one full analyze request for a program
// no other request names, and counts the exec.run spans (program
// executions) and executed iterations in their trace trees.
func (w *serveWorkload) probeRuns(ctx context.Context, m metrics) error {
	var runs int
	var iters int64
	kinds := []string{"analyze", "analyze-full"}
	for _, kind := range kinds {
		r := request{kind: kind, prog: service.ProgramRequest{Kernel: "fig7", N: 3000}}
		data, err := w.call(ctx, r, true)
		if err != nil {
			return err
		}
		var resp service.AnalyzeResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		trace.Walk(resp.Trace, func(n *trace.Node) {
			if n.Name == "exec.run" {
				runs++
				iters += intAttr(n, "steps")
			}
		})
	}
	m.set("service.exec_runs_per_req", float64(runs)/float64(len(kinds)))
	m.set("exec.iterations", float64(iters)/float64(len(kinds)))
	return nil
}

// kernelSource is the printed source of a named-kernel request.
func kernelSource(pr service.ProgramRequest) string {
	for _, k := range serveKernels {
		if k.name == pr.Kernel {
			return k.build(pr.N).String()
		}
	}
	panic("perfbench: no serve kernel " + pr.Kernel)
}
