package repro_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Integration tests: build the three command-line tools and drive them
// end-to-end against testdata/fig7.bw.

func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

func TestBwsimEndToEnd(t *testing.T) {
	bin := buildTool(t, "cmd/bwsim")
	out, err := runTool(t, bin, "testdata/fig7.bw")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"fig7 on Origin2000", "Mem-L2", "bottleneck", "print[0]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Exemplar with scaling and IR echo.
	out, err = runTool(t, bin, "-machine", "exemplar", "-scale", "4", "-print-ir", "testdata/fig7.bw")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "Exemplar/4") || !strings.Contains(out, "program fig7") {
		t.Fatalf("flags ignored:\n%s", out)
	}
}

func TestBwsimErrors(t *testing.T) {
	bin := buildTool(t, "cmd/bwsim")
	if out, err := runTool(t, bin); err == nil {
		t.Fatalf("missing file accepted:\n%s", out)
	}
	if out, err := runTool(t, bin, "-machine", "cray", "testdata/fig7.bw"); err == nil {
		t.Fatalf("unknown machine accepted:\n%s", out)
	}
	bad := filepath.Join(t.TempDir(), "bad.bw")
	if err := os.WriteFile(bad, []byte("program x\nloop L1 { ghost = 1 }"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := runTool(t, bin, bad); err == nil {
		t.Fatalf("invalid program accepted:\n%s", out)
	}
}

func TestBwoptEndToEnd(t *testing.T) {
	bin := buildTool(t, "cmd/bwopt")
	out, err := runTool(t, bin, "testdata/fig7.bw")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"optimized program", "store-elim", "speedup 2.00x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// A fusion-only pipeline must not eliminate the store.
	out, err = runTool(t, bin, "-passes", "fuse", "testdata/fig7.bw")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if strings.Contains(out, "store-elim") {
		t.Fatalf("fusion-only ran store elimination:\n%s", out)
	}
	if !strings.Contains(out, "fuse:") {
		t.Fatalf("fusion missing:\n%s", out)
	}
}

func TestBwoptVerifyFlag(t *testing.T) {
	bin := buildTool(t, "cmd/bwopt")
	out, err := runTool(t, bin, "-verify", "differential", "testdata/fig7.bw")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"verification report", "verified ok", "verify mode differential", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Explicit pass lists get a final check instead of a report.
	out, err = runTool(t, bin, "-verify", "structural", "-passes", "pipeline", "testdata/fig7.bw")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if out, err := runTool(t, bin, "-verify", "quantum", "testdata/fig7.bw"); err == nil {
		t.Fatalf("unknown verify mode accepted:\n%s", out)
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

// TestBwoptFinalCheck: bwopt compares the optimized program's prints
// with the original's at -tol and exits non-zero on a divergence,
// naming it; differential verification rolls the bad step back.
func TestBwoptFinalCheck(t *testing.T) {
	bin := buildTool(t, "cmd/bwopt")
	prog := filepath.Join(t.TempDir(), "sibling.bw")
	if err := os.WriteFile(prog, []byte(siblingLoops), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runTool(t, bin, prog)
	if err == nil {
		t.Fatalf("miscompiled program exited 0:\n%s", out)
	}
	if !strings.Contains(out, "print 0 diverged: original 24, transformed 36") {
		t.Fatalf("exit without the divergence:\n%s", out)
	}
	if strings.Contains(out, "reassociation") {
		t.Fatalf("divergence labelled as reassociation:\n%s", out)
	}
	out, err = runTool(t, bin, "-verify", "differential", prog)
	if err != nil {
		t.Fatalf("differential run failed: %v\n%s", err, out)
	}
	if strings.Contains(out, "diverges") {
		t.Fatalf("differential run still diverges:\n%s", out)
	}
}

func TestBwsimVerifyFlag(t *testing.T) {
	bin := buildTool(t, "cmd/bwsim")
	out, err := runTool(t, bin, "-verify", "structural", "testdata/fig7.bw")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "bottleneck") {
		t.Fatalf("verified run lost its report:\n%s", out)
	}
	// Differential needs a program pair; bwsim must refuse and point at bwopt.
	out, err = runTool(t, bin, "-verify", "differential", "testdata/fig7.bw")
	if err == nil {
		t.Fatalf("bwsim accepted differential mode:\n%s", out)
	}
	if !strings.Contains(out, "bwopt") {
		t.Fatalf("refusal does not point at bwopt:\n%s", out)
	}
	// A statically out-of-bounds subscript must fail before measuring.
	bad := filepath.Join(t.TempDir(), "oob.bw")
	src := "program oob\nconst N = 8\narray a[N]\nloop L1 {\n  for i = 0, N - 1 { a[i+1] = 1 }\n}\n"
	if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runTool(t, bin, "-verify", "structural", bad)
	if err == nil {
		t.Fatalf("out-of-bounds program accepted:\n%s", out)
	}
	if !strings.Contains(out, "outside extent") {
		t.Fatalf("missing bounds diagnostic:\n%s", out)
	}
}

func TestBwbenchSingleExperiments(t *testing.T) {
	bin := buildTool(t, "cmd/bwbench")
	cases := map[string]string{
		"fig4":     "bandwidth-minimal",
		"sec2.1":   "write loop pays twice",
		"stream":   "STREAM calibration",
		"ablation": "latency-only",
	}
	for exp, want := range cases {
		out, err := runTool(t, bin, "-quick", "-experiment", exp)
		if err != nil {
			t.Fatalf("%s: %v\n%s", exp, err, out)
		}
		if !strings.Contains(out, want) {
			t.Fatalf("%s output missing %q:\n%s", exp, want, out)
		}
	}
	if out, err := runTool(t, bin, "-experiment", "nonsense"); err == nil {
		t.Fatalf("unknown experiment accepted:\n%s", out)
	}
}

func TestBwoptPassesFlag(t *testing.T) {
	bin := buildTool(t, "cmd/bwopt")
	out, err := runTool(t, bin, "-passes", "fuse,scalarize:Update_Sum", "testdata/fig7.bw")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"fuse:", "scalarize:", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if out, err := runTool(t, bin, "-passes", "warp:drive", "testdata/fig7.bw"); err == nil {
		t.Fatalf("unknown pass accepted:\n%s", out)
	}
	if out, err := runTool(t, bin, "-passes", "interchange:NoSuch:i", "testdata/fig7.bw"); err == nil {
		t.Fatalf("bad pass target accepted:\n%s", out)
	}
}

// TestBwoptProfileSingleNest: on dmxpy's single nest fusion leaves the
// program unchanged, which is no checkpoint, so -profile -json reports
// no fuse row, and the pass deltas still add up to the whole saving.
func TestBwoptProfileSingleNest(t *testing.T) {
	bin := buildTool(t, "cmd/bwopt")
	out, err := runTool(t, bin, "-profile", "-json", "testdata/dmxpy.bw")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	type side struct {
		Profile struct {
			MemoryBytes int64 `json:"memory_bytes"`
		} `json:"profile"`
	}
	var doc struct {
		Before     side `json:"before"`
		After      side `json:"after"`
		PassDeltas []struct {
			Pass         string `json:"pass"`
			MemoryBefore int64  `json:"memory_before"`
			MemoryAfter  int64  `json:"memory_after"`
		} `json:"pass_deltas"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	saving := doc.Before.Profile.MemoryBytes - doc.After.Profile.MemoryBytes
	if len(doc.PassDeltas) == 0 || saving <= 0 {
		t.Fatalf("%d pass deltas for a saving of %d bytes; want a committed pass that saves", len(doc.PassDeltas), saving)
	}
	var sum int64
	for _, d := range doc.PassDeltas {
		if d.Pass == "fuse" {
			t.Errorf("fuse row for a single-nest program: %+v", d)
		}
		sum += d.MemoryBefore - d.MemoryAfter
	}
	if sum != saving {
		t.Errorf("pass deltas sum to %d bytes, want the whole saving %d", sum, saving)
	}
}

// TestBwbenchJSON checks the machine-readable output mode: one JSON
// document whose results mirror what the text tables report.
func TestBwbenchJSON(t *testing.T) {
	bin := buildTool(t, "cmd/bwbench")
	out, err := runTool(t, bin, "-quick", "-json", "-experiment", "sec2.1")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var doc struct {
		Config string `json:"config"`
		Env    struct {
			GoVersion  string `json:"go_version"`
			GOOS       string `json:"goos"`
			GOARCH     string `json:"goarch"`
			GOMAXPROCS int    `json:"gomaxprocs"`
			NumCPU     int    `json:"num_cpu"`
		} `json:"env"`
		Results []struct {
			Experiment string `json:"experiment"`
			ElapsedNS  int64  `json:"elapsed_ns"`
			Tables     []struct {
				Title   string     `json:"title"`
				Headers []string   `json:"headers"`
				Rows    [][]string `json:"rows"`
			} `json:"tables"`
			Text string `json:"text"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if doc.Config != "quick" {
		t.Fatalf("config = %q, want quick", doc.Config)
	}
	if doc.Env.GoVersion == "" || doc.Env.GOOS == "" || doc.Env.GOARCH == "" ||
		doc.Env.GOMAXPROCS < 1 || doc.Env.NumCPU < 1 {
		t.Fatalf("missing environment metadata: %+v", doc.Env)
	}
	if len(doc.Results) != 1 || doc.Results[0].Experiment != "sec2.1" {
		t.Fatalf("results: %+v", doc.Results)
	}
	r := doc.Results[0]
	if r.ElapsedNS <= 0 {
		t.Fatalf("elapsed_ns = %d", r.ElapsedNS)
	}
	if len(r.Tables) == 0 || len(r.Tables[0].Rows) == 0 || len(r.Tables[0].Headers) == 0 {
		t.Fatalf("tables empty: %+v", r.Tables)
	}

	// fig7 reports prose, which must land in the text field.
	out, err = runTool(t, bin, "-quick", "-json", "-experiment", "fig7")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("fig7 JSON: %v\n%s", err, out)
	}
	if len(doc.Results) != 1 || !strings.Contains(doc.Results[0].Text, "store") {
		t.Fatalf("fig7 text missing: %+v", doc.Results)
	}
}

// TestBwsimPassesFlag drives bwsim's optimize-then-measure mode.
func TestBwsimPassesFlag(t *testing.T) {
	bin := buildTool(t, "cmd/bwsim")
	out, err := runTool(t, bin, "-passes", "pipeline", "testdata/fig7.bw")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"passes applied", "store-elim", "bottleneck"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// With -passes, differential verification has its program pair.
	out, err = runTool(t, bin, "-verify", "differential", "-passes", "fuse", "testdata/fig7.bw")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if out, err := runTool(t, bin, "-passes", "warp", "testdata/fig7.bw"); err == nil {
		t.Fatalf("unknown pass accepted:\n%s", out)
	}
}

// TestBwsimPassesFinalCheck: with -passes, bwsim measures the original
// too and refuses a transformed program whose prints differ from it,
// with the same divergence text bwopt gives.
func TestBwsimPassesFinalCheck(t *testing.T) {
	bin := buildTool(t, "cmd/bwsim")
	prog := filepath.Join(t.TempDir(), "sibling.bw")
	if err := os.WriteFile(prog, []byte(siblingLoops), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runTool(t, bin, "-passes", "pipeline", prog)
	if err == nil {
		t.Fatalf("miscompiled program exited 0:\n%s", out)
	}
	if !strings.Contains(out, "optimized program diverges from the original") ||
		!strings.Contains(out, "print 0 diverged: original 24, transformed 36") {
		t.Fatalf("exit without the divergence:\n%s", out)
	}
}

// TestExamplesRun executes every example binary end-to-end and checks
// for its headline output, so the examples cannot rot.
func TestExamplesRun(t *testing.T) {
	cases := map[string][]string{
		"examples/quickstart":   {"predicted speedup: 3.00x", "results identical: true"},
		"examples/stencil":      {"applied transformations:", "results identical: true"},
		"examples/balancecheck": {"balance audit on Origin2000", "saxpy", "Mem-L2"},
		"examples/fusionlab":    {"bandwidth-minimal (this paper)", "7", "automatic fusion"},
		"examples/advisor":      {"bandwidth tuning advisor", "loop interchange"},
	}
	for pkg, wants := range cases {
		pkg, wants := pkg, wants
		t.Run(pkg, func(t *testing.T) {
			t.Parallel()
			bin := buildTool(t, pkg)
			out, err := runTool(t, bin)
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			for _, want := range wants {
				if !strings.Contains(out, want) {
					t.Fatalf("missing %q in:\n%s", want, out)
				}
			}
		})
	}
}
