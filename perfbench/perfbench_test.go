package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

// TestWorkloadsAtTinyLoad runs every workload for a fraction of a
// second, untraced and traced: every output check must pass and every
// named metric must be emitted, non-zero unless it is a per-layer count
// or fraction.
func TestWorkloadsAtTinyLoad(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), options{workload: name, seed: 1, seconds: 0.2, trace: traced}, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.name)
				case v.Unit != d.unit:
					t.Errorf("%s: metric %s unit %q, want %q", name, d.name, v.Unit, d.unit)
				case v.Value <= 0 && (!traced || (d.unit != "count" && d.unit != "frac")):
					t.Errorf("%s traced=%v: metric %s = %g, want > 0", name, traced, d.name, v.Value)
				}
			}
			if traced {
				if u := res.Metrics["trace.unattributed_frac"].Value; u > 0.05 {
					t.Errorf("%s: %.2f%% of op time is unattributed, want at most 5%%", name, 100*u)
				}
				if res.Metrics["trace.overhead_x"].Value <= 0 {
					t.Errorf("%s: trace.overhead_x not reported", name)
				}
			}
		}
	}
}

// TestMatmulAttribution checks the ledger's done-when on the panel's
// slowest op: named layers cover at least 95% of a matmul op.
func TestMatmulAttribution(t *testing.T) {
	w := &panelWorkload{}
	ctx := context.Background()
	if err := w.setup(ctx, 1); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	rec.ledger = newLedger()
	w.op(ctx, "matmul", true, rec)
	if rec.failed != 0 {
		t.Fatal(rec.failures)
	}
	if got := rec.ledger.byProgram["matmul"].attributed(); got < 0.95 {
		t.Errorf("named layers cover %.4f of the matmul op, want at least 0.95", got)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := nearestRank(xs, 80); got != 4 {
		t.Errorf("p80 = %g, want 4", got)
	}
	if got := nearestRank(xs, 100); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
}

func TestRequestSequenceIsSeeded(t *testing.T) {
	a, b := newRequestGen(7), newRequestGen(7)
	for i := 0; i < 500; i++ {
		ra, rb := a.nextRequest(), b.nextRequest()
		if ra != rb {
			t.Fatalf("request %d differs between two generators with one seed", i)
		}
	}
	c, d := newRequestGen(7), newRequestGen(8)
	for i := 0; i < 50; i++ {
		if c.nextRequest() != d.nextRequest() {
			return
		}
	}
	t.Error("seeds 7 and 8 give the same 50 requests")
}
