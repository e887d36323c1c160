package service

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/balance"
	"repro/internal/bounds"
	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestMeasureOneRunMatchesSeparateRuns is the oracle behind the
// one-execution measurement: for every built-in kernel, one Measure
// call with every option on and every registered machine must report,
// field for field, what separate single-purpose runs report — plain
// per-machine counters, a profile-only attribution, an MRC-only sweep,
// the standalone bounds analysis and a standalone Belady recording.
func TestMeasureOneRunMatchesSeparateRuns(t *testing.T) {
	var specs []machine.Spec
	for _, e := range machine.Entries() {
		specs = append(specs, e.Spec)
	}
	for name, k := range kernelTable {
		name, k := name, k
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			p, _, err := buildKernel(name, max(8, min(k.DefaultN/16, 4096)))
			if err != nil {
				t.Fatal(err)
			}
			one := func(spec machine.Spec, opts balance.Options) *balance.Report {
				t.Helper()
				reps, err := balance.Measure(ctx, p, []machine.Spec{spec}, opts)
				if err != nil {
					t.Fatal(err)
				}
				return reps[0]
			}
			all, err := balance.Measure(ctx, p, specs, balance.Options{
				Bounds: true, Profile: true, MRC: true, Belady: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != len(specs) {
				t.Fatalf("%d reports for %d machines", len(all), len(specs))
			}

			for i, spec := range specs {
				got, plain := all[i], one(spec, balance.Options{})
				if got.Machine != spec.Name || got.Flops != plain.Flops ||
					!reflect.DeepEqual(got.LevelStats, plain.LevelStats) ||
					!reflect.DeepEqual(got.ChannelBytes, plain.ChannelBytes) {
					t.Fatalf("%s: shared run %v / %v, plain run %v / %v",
						spec.Name, got.LevelStats, got.ChannelBytes, plain.LevelStats, plain.ChannelBytes)
				}
				a, err := bounds.Analyze(ctx, p, bounds.FastCapacity(spec), exec.Limits{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Bound, a) || got.OptimalityGap != bounds.Gap(plain.MemoryBytes, a.Best) {
					t.Fatalf("%s: bound %+v gap %v, standalone %+v", spec.Name, got.Bound, got.OptimalityGap, a)
				}
				if i > 0 && (got.Attribution != nil || got.MRC != nil || got.Replay != nil) {
					t.Fatalf("%s: primary-only observers attached to a secondary machine", spec.Name)
				}
			}

			// Attribution: the profile-only run, plus the per-array
			// floors the bounds footprint adds.
			prof := one(specs[0], balance.Options{Profile: true})
			floors := map[string]int64{}
			for _, af := range all[0].Bound.Footprint.Arrays {
				floors[af.Array] = af.BoundBytes()
			}
			want := *prof.Attribution
			want.Arrays = append([]balance.ArrayTraffic(nil), want.Arrays...)
			for j := range want.Arrays {
				at := &want.Arrays[j]
				if at.BoundBytes = floors[at.Array]; at.BoundBytes > 0 {
					at.Gap = float64(at.MemoryBytes) / float64(at.BoundBytes)
				}
			}
			if !reflect.DeepEqual(all[0].Attribution, &want) {
				t.Fatalf("attribution differs from the profile-only run:\n%+v\n%+v", all[0].Attribution.Arrays, want.Arrays)
			}

			mrc := one(specs[0], balance.Options{MRC: true}).MRC
			gotMRC := *all[0].MRC
			gotMRC.MeasureNS = mrc.MeasureNS
			if !reflect.DeepEqual(&gotMRC, mrc) {
				t.Fatal("MRC differs from the MRC-only run")
			}

			cfg := specs[0].Caches[len(specs[0].Caches)-1]
			cfg.Policy, cfg.NoWriteAllocate = sim.WriteBack, false
			rec, err := sim.NewRecorder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := exec.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cp.Run(rec); err != nil {
				t.Fatal(err)
			}
			lru, err := sim.ReplayLRU(rec.Trace())
			if err != nil {
				t.Fatal(err)
			}
			opt, err := sim.ReplayBelady(rec.Trace())
			if err != nil {
				t.Fatal(err)
			}
			wantReplay := &balance.Replay{Level: cfg.Name, Accesses: rec.Trace().Len(), LRU: lru, Belady: opt}
			if !reflect.DeepEqual(all[0].Replay, wantReplay) {
				t.Fatalf("replay %+v, standalone recording %+v", all[0].Replay, wantReplay)
			}
		})
	}
}

// TestOneProgramRunPerMeasurement counts program executions: however
// many features and machines an analyze request asks for, it runs the
// program once; an unverified optimize runs it twice (before and
// after), and a profiled one adds a run per intermediate pass snapshot
// only, its pass deltas reusing the before and after runs. The inline
// trace's exec.run spans and the bwserved_program_runs_total counter
// must agree.
func TestOneProgramRunPerMeasurement(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path string
		body       map[string]any
		runs       int // 0: one per pass delta plus one
	}{
		{"full analyze", "/v1/analyze", map[string]any{"kernel": "fig7", "n": 3000,
			"profile": true, "mrc": true, "belady": true,
			"machines": []string{"Origin2000", "SkylakeSP", "A64FX"}}, 1},
		{"plain analyze", "/v1/analyze", map[string]any{"kernel": "fig7", "n": 3001}, 1},
		{"optimize", "/v1/optimize", map[string]any{"kernel": "fig7", "n": 3002, "verify": "off"}, 2},
		{"profiled optimize", "/v1/optimize", map[string]any{"kernel": "fig7", "n": 3003, "profile": true}, 0},
	}
	for _, c := range cases {
		c.body["trace"] = true
		before := s.programRuns.Value()
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, body)
		}
		var out struct {
			Trace      []*trace.Node       `json:"trace"`
			PassDeltas []balance.PassDelta `json:"pass_deltas"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if c.runs == 0 {
			if len(out.PassDeltas) < 2 {
				t.Fatalf("%s: %d pass deltas, want at least 2 for the count to mean something", c.name, len(out.PassDeltas))
			}
			c.runs = 1 + len(out.PassDeltas)
		}
		spans := 0
		trace.Walk(out.Trace, func(n *trace.Node) {
			if n.Name == "exec.run" {
				spans++
			}
		})
		if spans != c.runs {
			t.Errorf("%s: %d exec.run spans, want %d", c.name, spans, c.runs)
		}
		if got := s.programRuns.Value() - before; got != float64(c.runs) {
			t.Errorf("%s: bwserved_program_runs_total rose by %v, want %d", c.name, got, c.runs)
		}
	}
}

// TestInlineSourceCanonicalKey: inline programs are cached under their
// parsed, printed form, so a variant differing only in blank lines and
// comments is a hit on the entry the original wrote.
func TestInlineSourceCanonicalKey(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := "program tiny\nconst N = 1024\narray a[N]\narray b[N]\n" +
		"loop L1 {\n  for i = 0, N - 1 {\n    b[i] = a[i] * 2.0 + 1.0\n  }\n}\n"
	variant := "# a comment\n\n" + strings.Replace(src, "loop L1", "# another\n\nloop L1", 1)
	for _, path := range []string{"/v1/analyze", "/v1/optimize"} {
		resp, body := postJSON(t, ts.URL+path, map[string]any{"program": src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s original: status %d: %s", path, resp.StatusCode, body)
		}
		hits := s.cacheHits.Value()
		resp, body = postJSON(t, ts.URL+path, map[string]any{"program": variant})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s variant: status %d: %s", path, resp.StatusCode, body)
		}
		var out struct {
			Cached bool `json:"cached"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Cached || s.cacheHits.Value() != hits+1 {
			t.Fatalf("%s: comment/blank-line variant missed the original's cache entry: %s", path, body)
		}
	}
}

// siblingLoops is contracted wrongly with verification off: the write
// and the read of a[m,i] sit in sibling inner loops, and the scalar
// that replaces a keeps only the last write. The original prints 24.
const siblingLoops = `program sibling
array a[2, 4]
scalar s
loop L {
  for m = 0, 1 {
    for i = 0, 3 { a[m, i] = m + i + 1 }
    for i = 0, 3 { s = s + a[m, i] }
  }
  print s
}
`

// TestOptimizeRefusesDivergence: an unverified optimize whose result
// prints something else than the original is a 422 naming the
// divergence, never cached; differential verification rolls the bad
// contraction back and answers 200 with it listed as skipped.
func TestOptimizeRefusesDivergence(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 2; i++ {
		runs := s.programRuns.Value()
		resp, body := postJSON(t, ts.URL+"/v1/optimize", map[string]any{"program": siblingLoops})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("request %d: status %d, want 422: %s", i, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "print 0 diverged: original 24, transformed 36") {
			t.Fatalf("request %d: 422 does not name the divergence: %s", i, body)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Fatalf("request %d: X-Cache %q, want miss: a refused answer must not be cached", i, got)
		}
		if got := s.programRuns.Value() - runs; got != 2 {
			t.Fatalf("request %d: bwserved_program_runs_total rose by %v, want 2", i, got)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/optimize", map[string]any{"program": siblingLoops, "verify": "differential"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("differential: status %d: %s", resp.StatusCode, body)
	}
	var out OptimizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	contracted := false
	for _, sk := range out.Verification.Skipped {
		if sk.Pass == "contract" && strings.Contains(sk.Cause, "diverged") {
			contracted = true
		}
	}
	if !contracted || !strings.Contains(out.Verification.Text, "SKIPPED") {
		t.Fatalf("differential run does not list the contraction as skipped: %+v\n%s",
			out.Verification.Skipped, out.Verification.Text)
	}
	if out.Before == nil || out.After == nil {
		t.Fatalf("differential run was not measured: %s", body)
	}
}
