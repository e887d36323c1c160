package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/balance"
	"repro/internal/bounds"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/transform"
)

// TestBoundSoundnessProperty is the property the whole optimality-gap
// feature stands on: for every registered kernel, on every registered
// machine, the lower bound is finite, positive, and never exceeds the
// measured traffic (gap >= 1) — for the original program and for the
// fully optimized program. A violation means the "lower bound" is not
// a bound and every reported gap is meaningless. Iterating the
// registry means a newly registered machine is subjected to the
// contract automatically.
func TestBoundSoundnessProperty(t *testing.T) {
	var machines []machine.Spec
	for _, e := range machine.Entries() {
		machines = append(machines, e.Spec)
	}
	for name, k := range kernelTable {
		name, k := name, k
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			// Cap the instantiation size so the full sweep (every kernel
			// x machine x variant) stays fast under -race. All
			// caps here are powers of two, so the FFT constraint holds.
			n := k.DefaultN
			if n > 4096 {
				n = 4096
			}
			p, _, err := buildKernel(name, n)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			progs := map[string]*ir.Program{"original": p}
			if q, _, err := transform.OptimizeVerifiedCtx(ctx, p, transform.Config{Options: transform.All()}); err == nil {
				progs["optimized"] = q
			} else {
				t.Logf("optimize failed (original-only property): %v", err)
			}
			for variant, prog := range progs {
				reps, err := balance.Measure(ctx, prog, machines, balance.Options{Bounds: true})
				if err != nil {
					t.Fatalf("%s: measure: %v", variant, err)
				}
				for i, spec := range machines {
					rep, a := reps[i], reps[i].Bound
					label := fmt.Sprintf("%s/%s", spec.Name, variant)
					if a.Best.Bytes <= 0 {
						t.Fatalf("%s: bound %d bytes, want positive", label, a.Best.Bytes)
					}
					if a.Best.Bytes > rep.MemoryBytes {
						t.Fatalf("%s: UNSOUND bound: %d bytes exceeds measured %d",
							label, a.Best.Bytes, rep.MemoryBytes)
					}
					if g := bounds.Gap(rep.MemoryBytes, a.Best); g < 1 {
						t.Fatalf("%s: gap %.4f < 1", label, g)
					}
				}
			}
		})
	}
}

// TestAnalyzeBoundsConsistency pins the contract that the same gap
// number appears everywhere it is surfaced: the /v1/analyze bounds
// block, the bwserved_optimality_gap{kernel} gauge on /metrics, and the
// best_known_gap column of GET /v1/kernels.
func TestAnalyzeBoundsConsistency(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"kernel": "matmul", "n": 48})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d: %s", resp.StatusCode, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	b := ar.Bounds
	if b == nil {
		t.Fatalf("full-service analyze response has no bounds block: %s", body)
	}
	if b.BoundBytes <= 0 || b.Gap < 1 {
		t.Fatalf("bounds block not sound: %+v", b)
	}
	// Best is whichever argument gives the larger bound — at this size
	// either can win, but it must name one of the two.
	if b.Kind != "pebbling" && b.Kind != "compulsory" {
		t.Fatalf("matmul bound kind %q, want pebbling or compulsory", b.Kind)
	}
	if got := b.Gap; got != float64(b.MeasuredBytes)/float64(b.BoundBytes) {
		t.Fatalf("gap %v inconsistent with measured/bound = %d/%d", got, b.MeasuredBytes, b.BoundBytes)
	}

	// The per-kernel-per-machine gauge carries the same number.
	if got := s.optimalityGap.With("matmul", "Origin2000").Value(); got != b.Gap {
		t.Fatalf("bwserved_optimality_gap{matmul,Origin2000} = %v, response gap %v", got, b.Gap)
	}
	resp, metrics := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if !strings.Contains(metrics, `bwserved_optimality_gap{kernel="matmul",machine="Origin2000"}`) {
		t.Fatalf("/metrics missing bwserved_optimality_gap{kernel=\"matmul\",machine=\"Origin2000\"}:\n%s", metrics)
	}

	// GET /v1/kernels reports it as the best-known gap, alongside the
	// precomputed lower bound for every analyzable built-in.
	resp, kbody := get(t, ts.URL+"/v1/kernels")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("kernels status %d", resp.StatusCode)
	}
	var kr struct {
		Kernels []KernelInfo `json:"kernels"`
	}
	if err := json.Unmarshal([]byte(kbody), &kr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range kr.Kernels {
		if k.LowerBound == nil {
			t.Fatalf("kernel %s has no precomputed lower bound", k.Name)
		}
		if k.LowerBound.BoundBytes <= 0 {
			t.Fatalf("kernel %s precomputed bound %d, want positive", k.Name, k.LowerBound.BoundBytes)
		}
		if k.Name == "matmul" {
			found = true
			if k.BestKnownGap != b.Gap {
				t.Fatalf("best_known_gap %v, response gap %v", k.BestKnownGap, b.Gap)
			}
		} else if k.BestKnownGap != 0 {
			t.Fatalf("kernel %s has best_known_gap %v without any measurement", k.Name, k.BestKnownGap)
		}
	}
	if !found {
		t.Fatal("matmul missing from /v1/kernels")
	}

	// A second, smaller-traffic measurement of the same kernel must
	// lower the best-known gap monotonically (min, not latest).
	before := b.Gap
	resp, body = postJSON(t, ts.URL+"/v1/optimize", map[string]any{"kernel": "matmul", "n": 48})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status %d: %s", resp.StatusCode, body)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if or.Bounds == nil {
		t.Fatalf("full-service optimize response has no bounds block: %s", body)
	}
	best := s.bestKnownGaps()["matmul"]
	if want := min(before, or.Bounds.Gap); best != want {
		t.Fatalf("best-known gap %v after optimize, want min(%v, %v)", best, before, or.Bounds.Gap)
	}
}

// TestDegradedBoundsCacheDiscipline extends the cache-poisoning rule to
// the bounds dimension: a response computed without the lower bound must
// never be served to a full-service request, because the bounds switch
// is part of the cache address. Both endpoints share the lifecycle that
// enforces it, so both are checked.
func TestDegradedBoundsCacheDiscipline(t *testing.T) {
	for path, body := range map[string]map[string]any{
		"/v1/analyze":  {"kernel": "dmxpy", "n": 96, "belady": true},
		"/v1/optimize": {"kernel": "dmxpy", "n": 96},
	} {
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) { testDegradedBoundsCacheDiscipline(t, path, body) })
	}
}

// boundsResponse is the part of either endpoint's response the bounds
// discipline reads.
type boundsResponse struct {
	ResponseMeta
	Bounds *BoundsSummary `json:"bounds"`
}

func testDegradedBoundsCacheDiscipline(t *testing.T, path string, body map[string]any) {
	s, ts := newTestServer(t, Config{Workers: 1})
	withTimeout := func(ms int) map[string]any {
		m := map[string]any{"timeout_ms": ms}
		for k, v := range body {
			m[k] = v
		}
		return m
	}
	post := func(req map[string]any) boundsResponse {
		t.Helper()
		resp, b := postJSON(t, ts.URL+path, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		var r boundsResponse
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Force the ladder: write the cost estimate directly, then send a
	// deadline in [est/4, est/2) — rung 2, which sheds the lower bound
	// but keeps the measurement.
	s.pipeEWMABits.Store(math.Float64bits(1.0))
	deg := post(withTimeout(400))
	if deg.Degraded == nil || deg.Degraded.Level != 2 {
		t.Fatalf("want rung-2 degradation, got %+v", deg.Degraded)
	}
	if deg.Bounds != nil {
		t.Fatalf("rung-2 response kept the bounds block the rung sheds: %+v", deg.Bounds)
	}

	// Full-deadline follow-up: must recompute, not serve the unbounded
	// cached answer.
	s.pipeEWMABits.Store(math.Float64bits(0.001))
	full := post(body)
	if full.Cached {
		t.Fatal("unbounded result was served to a full-bounds request")
	}
	if full.Degraded != nil || full.Bounds == nil || full.Bounds.Gap < 1 {
		t.Fatalf("full request: degraded %+v, bounds %+v", full.Degraded, full.Bounds)
	}

	// A tight-deadline request now hits the cache at its own address,
	// where the full answer sits, before the ladder is consulted.
	s.pipeEWMABits.Store(math.Float64bits(1.0))
	again := post(withTimeout(400))
	if !again.Cached || again.Degraded != nil {
		t.Fatalf("repeat tight-deadline request: cached %v, degraded %+v", again.Cached, again.Degraded)
	}
	if again.Bounds == nil {
		t.Fatal("cached full answer lost its bounds block")
	}
}

// TestDegradedCachedVariantProbe pins the degradation rung's cache
// probes on both endpoints. A rung-1 request whose own address missed
// is answered from the bounded variant of its effective features, with
// no program run and both markers set. At rung 2 (structural-only) both
// endpoints still measure, so the answer is cached at the degraded
// address and a repeat is served from there.
func TestDegradedCachedVariantProbe(t *testing.T) {
	for _, c := range []struct {
		path         string
		full, probed map[string]any
	}{
		{"/v1/analyze", map[string]any{"kernel": "dmxpy", "n": 96},
			map[string]any{"kernel": "dmxpy", "n": 96, "profile": true, "timeout_ms": 700}},
		{"/v1/optimize", map[string]any{"kernel": "dmxpy", "n": 96, "verify": "structural"},
			map[string]any{"kernel": "dmxpy", "n": 96, "verify": "differential", "profile": true, "timeout_ms": 700}},
	} {
		t.Run(strings.TrimPrefix(c.path, "/v1/"), func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1})
			decode := func(resp *http.Response, b []byte) boundsResponse {
				t.Helper()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s", resp.StatusCode, b)
				}
				var m boundsResponse
				if err := json.Unmarshal(b, &m); err != nil {
					t.Fatal(err)
				}
				return m
			}

			if m := decode(postJSON(t, ts.URL+c.path, c.full)); m.Cached || m.Degraded != nil {
				t.Fatalf("full request: %+v", m)
			}
			s.pipeEWMABits.Store(math.Float64bits(1.0))
			runs := s.programRuns.Value()
			resp, b := postJSON(t, ts.URL+c.path, c.probed)
			m := decode(resp, b)
			if m.Degraded == nil || m.Degraded.Level != 1 || !m.Cached {
				t.Fatalf("rung-1 request not served from the bounded variant: %s", b)
			}
			if resp.Header.Get("X-Cache") != "miss" || resp.Header.Get("X-Degraded") != m.Degraded.Mode {
				t.Fatalf("headers X-Cache %q X-Degraded %q", resp.Header.Get("X-Cache"), resp.Header.Get("X-Degraded"))
			}
			if strings.Contains(string(b), `"profile"`) {
				t.Fatalf("probed answer carries a profile the rung sheds: %s", b)
			}
			if got := s.programRuns.Value(); got != runs {
				t.Fatalf("probed answer ran the program %v times", got-runs)
			}

			// 400ms against a 1s estimate: rung 2, structural-only.
			rung2 := map[string]any{"kernel": "dmxpy", "n": 80, "timeout_ms": 400}
			for i := 0; i < 2; i++ {
				resp, b := postJSON(t, ts.URL+c.path, rung2)
				m := decode(resp, b)
				if m.Degraded == nil || m.Degraded.Level != 2 {
					t.Fatalf("request %d: want rung 2, got %+v", i, m.Degraded)
				}
				if m.Cached != (i == 1) {
					t.Fatalf("rung-2 request %d: cached = %v, want %v", i, m.Cached, i == 1)
				}
				if m.Bounds != nil {
					t.Fatalf("rung-2 request %d kept the bounds block: %s", i, b)
				}
				var or OptimizeResponse
				if c.path == "/v1/optimize" && (json.Unmarshal(b, &or) != nil || or.Before == nil || or.After == nil) {
					t.Fatalf("rung-2 optimize %d lost its checked measurement: %s", i, b)
				}
			}
		})
	}
}
