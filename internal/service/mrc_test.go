package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/faults"
)

// TestAnalyzeMRC: an "mrc": true analyze returns the reuse-distance
// block — monotone per-level curves, the machine's knee, a phase
// timeline — participates in the cache under its own key, and feeds
// the knee gauge and the dashboard panel.
func TestAnalyzeMRC(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := map[string]any{"kernel": "dmxpy", "n": 96, "mrc": true}

	resp, b := postJSON(t, ts.URL+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(b, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.MRC == nil {
		t.Fatalf("mrc:true response missing the mrc block: %s", b)
	}
	if len(ar.MRC.Levels) == 0 || len(ar.MRC.Knees) == 0 || len(ar.MRC.Timeline) == 0 {
		t.Fatalf("mrc block incomplete: %d levels, %d knees, %d epochs",
			len(ar.MRC.Levels), len(ar.MRC.Knees), len(ar.MRC.Timeline))
	}
	for _, lv := range ar.MRC.Levels {
		if !lv.MatchesFixed {
			t.Fatalf("level %s: curve does not reproduce the fixed simulation", lv.Name)
		}
		for i := 1; i < len(lv.Points); i++ {
			if lv.Points[i].CapacityBytes <= lv.Points[i-1].CapacityBytes {
				t.Fatalf("level %s: capacities not ascending at %d", lv.Name, i)
			}
			if lv.Points[i].Misses > lv.Points[i-1].Misses {
				t.Fatalf("level %s: misses not monotone non-increasing at %d", lv.Name, i)
			}
		}
	}

	// The knee gauge is set for the measurement's machine.
	if got := s.wsKnee.With("dmxpy", ar.MRC.Machine).Value(); got == 0 {
		t.Fatalf("bwserved_ws_knee_bytes{dmxpy,%s} unset after an mrc run", ar.MRC.Machine)
	}
	kneeRows(t, ts.URL, ar.MRC.Machine)

	// Identical request: cache hit with the block intact.
	resp, b = postJSON(t, ts.URL+"/v1/analyze", body)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second identical mrc request missed the cache: %s", b)
	}
	var hit AnalyzeResponse
	json.Unmarshal(b, &hit)
	if !hit.Cached || hit.MRC == nil {
		t.Fatalf("cached mrc response lost the block: %s", b)
	}

	// The mrc flag is part of the content address: the mrc-free variant
	// of the same program must miss.
	resp, b = postJSON(t, ts.URL+"/v1/analyze", map[string]any{"kernel": "dmxpy", "n": 96})
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatal("mrc:false request hit the mrc:true cache entry")
	}
	var plain AnalyzeResponse
	json.Unmarshal(b, &plain)
	if plain.MRC != nil {
		t.Fatal("mrc:false response carries an mrc block")
	}

	// The dashboard renders the panel.
	dresp, err := http.Get(ts.URL + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	raw, err := io.ReadAll(dresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	html := string(raw)
	if !strings.Contains(html, "miss-ratio curves and phase timelines") {
		t.Fatal("dashboard missing the MRC panel after an mrc run")
	}
	if !strings.Contains(html, "bwserved_ws_knee_bytes") {
		t.Fatal("dashboard MRC panel missing the gauge pointer")
	}
}

// TestOptimizeMRC: an "mrc": true optimize returns the before/after
// overlay, proving the response carries both curves.
func TestOptimizeMRC(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "fig7", "n": 512, "mrc": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(b, &or); err != nil {
		t.Fatal(err)
	}
	if or.MRCBefore == nil || or.MRCAfter == nil {
		t.Fatalf("mrc:true optimize missing before/after blocks: %s", b)
	}
	// Fusion must not raise fig7's compulsory memory-channel floor, and
	// the optimized demand at full capacity must drop (the knee-shift
	// the issue's CI job asserts).
	bl, al := or.MRCBefore.MemLevel(), or.MRCAfter.MemLevel()
	if bl == nil || al == nil {
		t.Fatal("mrc blocks missing the memory-facing level")
	}
	bFloor := bl.Points[len(bl.Points)-1].TrafficBytes
	aFloor := al.Points[len(al.Points)-1].TrafficBytes
	if aFloor > bFloor {
		t.Fatalf("optimizer raised the traffic floor: %d -> %d bytes", bFloor, aFloor)
	}
}

// TestMRCDegradationShed: under a deadline that cannot afford full
// service, the mrc sweep is shed — the response is degraded, omits the
// block, and is never cached under the full mrc:true address.
func TestMRCDegradationShed(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Faults:  faults.MustParse("analysis.slow:once,delay=400ms"),
	})
	// Prime the cost estimate with one slow full-service run.
	resp, b := postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "sec21", "n": 1024, "verify": "differential",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming run: status %d: %s", resp.StatusCode, b)
	}

	// 250ms deadline vs ≥400ms estimate: rung 1+, mrc shed.
	body := map[string]any{"kernel": "dmxpy", "n": 96, "mrc": true, "timeout_ms": 250}
	resp, b = postJSON(t, ts.URL+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded run: status %d: %s", resp.StatusCode, b)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(b, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Degraded == nil {
		t.Fatalf("response not degraded under a deadline below the cost estimate: %s", b)
	}
	if ar.MRC != nil {
		t.Fatal("degraded response still carries the mrc block")
	}

	// Cache-poisoning check: a full-deadline mrc request for the same
	// program must not be served the shed result.
	resp, b = postJSON(t, ts.URL+"/v1/analyze", map[string]any{"kernel": "dmxpy", "n": 96, "mrc": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up full run: status %d: %s", resp.StatusCode, b)
	}
	var full AnalyzeResponse
	json.Unmarshal(b, &full)
	if full.Cached {
		t.Fatal("shed result was cached under the full mrc request's key")
	}
	if full.MRC == nil {
		t.Fatalf("full-deadline mrc request lost the block: %s", b)
	}
}

// TestMRCTimeout504: a deadline too small for the sweep itself yields
// a clean 504, not a hang or a 500 (the recorder observes context
// cancellation through the engine's polling).
func TestMRCTimeout504(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"kernel": "matmul", "n": 384, "mrc": true, "timeout_ms": 1,
	})
	switch resp.StatusCode {
	case http.StatusGatewayTimeout, http.StatusServiceUnavailable:
		// 504 when the pipeline was cut off mid-run; 503 when admission
		// control shed it first. Both are clean refusals.
	default:
		t.Fatalf("status %d, want 504 or 503: %s", resp.StatusCode, b)
	}
}

// TestMRCKneeGaugeOwnMachine: an Origin2000 mrc request rates and sets
// the knee gauge of Origin2000 only. A knee for another machine would
// be read off Origin2000's geometry, so the block must carry none.
func TestMRCKneeGaugeOwnMachine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := map[string]any{"kernel": "dmxpy", "n": 96, "mrc": true, "machine": "Origin2000"}
	resp, b := postJSON(t, ts.URL+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(b, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.MRC == nil || ar.MRC.Machine != "Origin2000" {
		t.Fatalf("want an Origin2000 mrc block, got %s", b)
	}
	if len(ar.MRC.Knees) != 1 || ar.MRC.Knees[0].Machine != "Origin2000" {
		t.Fatalf("want one knee, Origin2000's; got %+v", ar.MRC.Knees)
	}
	kneeRows(t, ts.URL, "Origin2000")
}

// kneeRows requires /metrics to carry exactly one dmxpy row of
// bwserved_ws_knee_bytes, labelled with machine.
func kneeRows(t *testing.T, url, machine string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "bwserved_ws_knee_bytes{") && strings.Contains(line, `"dmxpy"`) {
			rows = append(rows, line)
		}
	}
	if len(rows) != 1 || !strings.Contains(rows[0], `machine="`+machine+`"`) {
		t.Fatalf("want one dmxpy knee row, for %s; got %q", machine, rows)
	}
}
