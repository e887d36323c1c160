package core

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/balance"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/transform"
)

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	f := strings.Fields(s)[0]
	f = strings.TrimSuffix(f, "%")
	v, err := strconv.ParseFloat(f, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric", s)
	}
	return v
}

func findRow(t *testing.T, tab *report.Table, key string) []string {
	t.Helper()
	for _, r := range tab.Rows {
		if strings.Contains(r[0], key) || (len(r) > 1 && strings.Contains(r[1], key)) {
			return r
		}
	}
	t.Fatalf("row %q not found in\n%s", key, tab)
	return nil
}

func TestAnalyzeAndOptimizeFacade(t *testing.T) {
	p := kernels.Fig8Workload(20000)
	before, err := Analyze(p, machine.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	q, actions, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) == 0 {
		t.Fatal("no actions applied")
	}
	after, err := Analyze(q, machine.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	if s := balance.Speedup(before, after); s < 1.5 {
		t.Fatalf("speedup = %.2f, want ~2", s)
	}
	// Semantics preserved.
	if math.Abs(before.Result.Prints[0]-after.Result.Prints[0]) > 1e-9 {
		t.Fatal("optimization changed the program's output")
	}
}

func TestSec21Experiment(t *testing.T) {
	tab, err := Sec21(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Both machines: the write loop's ratio column ~2.
	for _, r := range tab.Rows {
		if strings.Contains(r[1], "write") {
			if v := cellFloat(t, r[4]); math.Abs(v-2) > 0.2 {
				t.Fatalf("write/read ratio = %v on %s", v, r[0])
			}
		}
	}
}

func TestFig1Experiment(t *testing.T) {
	tab, err := Fig1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 { // 7 apps + machine row
		t.Fatalf("rows = %d\n%s", len(tab.Rows), tab)
	}
	// Key shapes: every unblocked app demands more memory bandwidth
	// than the machine's 0.8 B/flop; blocking collapses mm's.
	machineRow := findRow(t, tab, "Origin2000")
	if cellFloat(t, machineRow[3]) != 0.8 {
		t.Fatalf("machine memory balance = %s", machineRow[3])
	}
	for _, app := range []string{"convolution", "dmxpy", "jki", "FFT", "NAS/SP", "Sweep3D"} {
		r := findRow(t, tab, app)
		if cellFloat(t, r[3]) <= 0.8 {
			t.Fatalf("%s memory balance %s not above machine supply\n%s", app, r[3], tab)
		}
	}
	jki := cellFloat(t, findRow(t, tab, "jki")[3])
	blk := cellFloat(t, findRow(t, tab, "blocked")[3])
	if blk > jki/5 {
		t.Fatalf("blocked mm balance %v vs jki %v: blocking effect missing", blk, jki)
	}
}

func TestFig2Experiment(t *testing.T) {
	tab, err := Fig2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 { // mm -O3 excluded
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		mem := cellFloat(t, r[3])
		if mem < 1 {
			t.Fatalf("%s memory ratio %v should exceed 1", r[0], mem)
		}
		// The memory ratio must dominate the register and cache ratios
		// (the paper's "memory bandwidth is the least sufficient
		// resource").
		if mem < cellFloat(t, r[1]) || mem < cellFloat(t, r[2]) {
			t.Fatalf("%s: memory ratio not dominant: %v", r[0], r)
		}
	}
}

func TestFig3Experiment(t *testing.T) {
	tab, err := Fig3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(kernels.StrideKernelNames) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// All kernels saturate: utilization >= 80% on Origin2000.
	for _, r := range tab.Rows {
		if u := cellFloat(t, r[2]); u < 80 {
			t.Fatalf("%s only %v%% utilized on Origin2000\n%s", r[0], u, tab)
		}
	}
}

func TestFig4Experiment(t *testing.T) {
	tab, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if v := cellFloat(t, findRow(t, tab, "no fusion")[1]); v != 20 {
		t.Fatalf("no fusion loads %v", v)
	}
	if v := cellFloat(t, findRow(t, tab, "edge-weighted")[1]); v != 8 {
		t.Fatalf("edge-weighted loads %v", v)
	}
	if v := cellFloat(t, findRow(t, tab, "bandwidth-minimal")[1]); v != 7 {
		t.Fatalf("bandwidth-minimal loads %v", v)
	}
	if v := cellFloat(t, findRow(t, tab, "heuristic")[1]); v != 7 {
		t.Fatalf("heuristic loads %v", v)
	}
}

func TestFig5Experiment(t *testing.T) {
	tab, err := Fig5(32)
	if err != nil {
		t.Fatal(err)
	}
	// The seed-7 instances are fixed, so every column but the time is.
	want := [][]string{{"8", "11", "1"}, {"16", "23", "1"}, {"32", "47", "1"}}
	if len(tab.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d\n%s", len(tab.Rows), len(want), tab)
	}
	for i, w := range want {
		if got := tab.Rows[i][:3]; !reflect.DeepEqual(got, w) {
			t.Errorf("row %d loops/arrays/cut weight = %v, want %v", i, got, w)
		}
	}
}

func TestFig6Experiment(t *testing.T) {
	tab, err := Fig6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	a := findRow(t, tab, "(a)")
	c := findRow(t, tab, "(c)")
	// Speedup of (c) over (a) must be substantial.
	if v := cellFloat(t, c[4]); v < 1.5 {
		t.Fatalf("shrink+peel speedup = %v\n%s", v, tab)
	}
	_ = a
}

func TestFig7Experiment(t *testing.T) {
	out, err := Fig7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"store-elim", "res_v", "--- original ---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig8Experiment(t *testing.T) {
	tab, err := Fig8(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[1] == "store elimination" {
			if v := cellFloat(t, r[4]); v < 1.7 {
				t.Fatalf("%s full-pipeline speedup = %v, want ~2\n%s", r[0], v, tab)
			}
		}
		if r[1] == "fusion only" {
			if v := cellFloat(t, r[4]); v < 1.1 {
				t.Fatalf("%s fusion-only speedup = %v\n%s", r[0], v, tab)
			}
		}
	}
}

func TestSPUtilizationExperiment(t *testing.T) {
	tab, err := SPUtilization(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	high := 0
	for _, r := range tab.Rows {
		if cellFloat(t, r[2]) >= 84 {
			high++
		}
	}
	if high < 4 {
		t.Fatalf("only %d routines above 84%% utilization\n%s", high, tab)
	}
}

func TestModelAblationExperiment(t *testing.T) {
	tab, err := ModelAblation(Quick())
	if err != nil {
		t.Fatal(err)
	}
	bwRow := findRow(t, tab, "bandwidth-bound")
	latRow := findRow(t, tab, "latency-only")
	if v := cellFloat(t, bwRow[3]); math.Abs(v-2) > 0.2 {
		t.Fatalf("bandwidth model ratio %v, want ~2", v)
	}
	if v := cellFloat(t, latRow[3]); math.Abs(v-1) > 0.2 {
		t.Fatalf("latency model ratio %v, want ~1", v)
	}
}

func TestConflictStudyExperiment(t *testing.T) {
	tab, err := ConflictStudy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// 3w6r: direct-mapped traffic must exceed the 2-way traffic.
	var dm, sa float64
	for _, r := range tab.Rows {
		if r[0] == "3w6r" && r[1] == "direct-mapped" {
			dm = cellFloat(t, r[2])
		}
		if r[0] == "3w6r" && r[1] == "2-way" {
			sa = cellFloat(t, r[2])
		}
	}
	if dm <= sa {
		t.Fatalf("no conflict excess: direct-mapped %v vs 2-way %v\n%s", dm, sa, tab)
	}
}

func TestOptimizeWithOptions(t *testing.T) {
	p := kernels.Fig8Workload(4000)
	q, _, err := transform.OptimizeVerified(p, transform.Config{Pipeline: "fuse"})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Nests) != 1 {
		t.Fatal("fusion-only did not fuse")
	}
}

func TestRegroupStudyExperiment(t *testing.T) {
	tab, err := RegroupStudy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if v := cellFloat(t, findRow(t, tab, "interleaved")[3]); v < 1.5 {
		t.Fatalf("regrouping speedup = %v, want conflict elimination\n%s", v, tab)
	}
}

func TestBeladyStudyExperiment(t *testing.T) {
	tab, err := BeladyStudy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Belady must not exceed LRU traffic; blocking must beat both.
	var lru, opt, blk float64
	for _, r := range tab.Rows {
		v := cellFloat(t, r[3])
		switch {
		case r[0] == "mm jki" && r[1] == "LRU":
			lru = v
		case r[0] == "mm jki":
			opt = v
		default:
			blk = v
		}
	}
	if opt > lru {
		t.Fatalf("Belady traffic ratio %v exceeds LRU %v", opt, lru)
	}
	if blk >= opt {
		t.Fatalf("restructuring (%v) must beat optimal replacement (%v)\n%s", blk, opt, tab)
	}
}

func TestFutureBalanceStudy(t *testing.T) {
	tab, err := FutureBalanceStudy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The utilization bound must fall monotonically as CPUs speed up,
	// and the machine memory balance must shrink.
	var prevBound, prevBal float64 = 101, 1e9
	for _, r := range tab.Rows {
		bal := cellFloat(t, r[1])
		bound := cellFloat(t, r[2])
		if bal >= prevBal || bound > prevBound {
			t.Fatalf("bottleneck not worsening: %v\n%s", r, tab)
		}
		prevBal, prevBound = bal, bound
		// The pipeline speedup must stay ~2x at every CPU speed.
		if v := cellFloat(t, r[3]); v < 1.8 {
			t.Fatalf("pipeline speedup %v at %s\n%s", v, r[0], tab)
		}
	}
}

func TestInterchangeStudy(t *testing.T) {
	tab, err := InterchangeStudy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if v := cellFloat(t, findRow(t, tab, "interchanged")[4]); v < 2 {
		t.Fatalf("interchange speedup = %v\n%s", v, tab)
	}
}

func TestRegisterBalanceStudy(t *testing.T) {
	tab, err := RegisterBalanceStudy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	before := cellFloat(t, findRow(t, tab, "as written")[1])
	after := cellFloat(t, findRow(t, tab, "unroll-and-jam")[1])
	if after >= 0.72*before {
		t.Fatalf("register balance %v -> %v: reuse not captured\n%s", before, after, tab)
	}
}
