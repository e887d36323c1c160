// Command bwbench regenerates the paper's tables and figures on the
// simulated machines.
//
// Usage:
//
//	bwbench [-quick] [-json] [-experiment all|<name>] [-trace out.json]
//	bwbench [-quick] -load [-url http://localhost:8080] \
//	        [-load-duration 30s] [-load-workers 8] [-load-rate 0] \
//	        [-load-timeout 10s] [-load-chaos spec] [-load-out report.json]
//
// Run bwbench -h for the full experiment list (it is derived from the
// experiments table below, so the two cannot drift apart).
//
// Each experiment prints the same rows/series the paper reports,
// with a footnote quoting the paper's measured values for comparison.
// With -json, the same results are emitted as one machine-readable
// JSON document instead: per experiment its name, wall time in
// nanoseconds, and every table's headers, rows and notes (the rows
// carry the traffic/balance/bandwidth numbers the text tables show),
// plus the environment the numbers were collected in.
//
// With -trace, the whole bench run is written as Chrome trace-event
// JSON: one span per experiment.
//
// The performance of the pipeline itself is measured by the repo
// benchmark (BENCHMARK.json, perfbench/), not by bwbench.
//
// The second form is a load generator against a running bwserved: a
// closed loop of -load-workers concurrent callers (or, with
// -load-rate, an open loop of fixed-rate arrivals) driving a mixed
// analyze/optimize stream through internal/client — retries,
// Retry-After, circuit breaker — for -load-duration. It prints (and
// with -load-out writes) a JSON report: latency percentiles, shed and
// coalesce rates, a degradation histogram, breaker state. Exit status
// 3 flags a resilience violation (any 5xx other than 503/504);
// -quick caps the duration at 5s for CI smoke runs. -load-chaos
// attaches a per-request X-Chaos fault spec (the server must run with
// -chaos-header).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/trace"
)

var experiments = []string{
	"sec2.1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"sp-util", "ablation", "conflicts", "regroup", "belady", "future", "interchange", "regbalance", "gaps", "mrc", "stream", "cachebench", "characterize",
}

// jsonTable is one result table in -json output, mirroring
// report.Table's exported fields with stable JSON names.
type jsonTable struct {
	Title   string     `json:"title,omitempty"`
	Headers []string   `json:"headers,omitempty"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// jsonResult is one experiment's machine-readable outcome.
type jsonResult struct {
	Experiment string      `json:"experiment"`
	ElapsedNS  int64       `json:"elapsed_ns"`
	Tables     []jsonTable `json:"tables,omitempty"`
	// Text carries experiments that report prose rather than a table
	// (fig7's transformation walkthrough).
	Text string `json:"text,omitempty"`
}

// jsonEnv is the environment a -json document was collected in.
type jsonEnv struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Hostname   string `json:"hostname,omitempty"`
	// GitRef is the short commit hash at collection time, when the
	// working directory is a git checkout with git on PATH.
	GitRef string `json:"git_ref,omitempty"`
}

// jsonOutput is the top-level -json document.
type jsonOutput struct {
	Config string `json:"config"` // "default" or "quick"
	// Env records where the numbers were collected (Go version,
	// GOMAXPROCS, CPU count, git ref), so documents from different
	// machines are comparable — or visibly not.
	Env     jsonEnv      `json:"env"`
	Results []jsonResult `json:"results"`
}

func main() {
	quick := flag.Bool("quick", false, "small workloads with cache-scaled machines (seconds instead of minutes)")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON document instead of text tables")
	which := flag.String("experiment", "all",
		"which experiment to run: all, or one of "+strings.Join(experiments, ", "))
	machineName := flag.String("machine", "",
		"restrict the machine-model experiments (stream, cachebench, characterize) to one machine (default: all registered)")
	listMachines := flag.Bool("list-machines", false, "list registered machine models and exit")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file of the bench run to this path")
	load := flag.Bool("load", false, "load-generator mode: drive a running bwserved and report latency/shed/coalesce/degradation")
	loadURL := flag.String("url", "http://localhost:8080", "bwserved base URL for -load")
	loadDuration := flag.Duration("load-duration", 30*time.Second, "how long -load drives traffic (-quick caps it at 5s)")
	loadWorkers := flag.Int("load-workers", 8, "closed-loop concurrent callers for -load")
	loadRate := flag.Float64("load-rate", 0, "open-loop arrivals/sec for -load (0 = closed loop)")
	loadTimeout := flag.Duration("load-timeout", 10*time.Second, "per-request server deadline sent by -load")
	loadChaos := flag.String("load-chaos", "", "X-Chaos fault spec sent with every -load request (server needs -chaos-header)")
	loadOut := flag.String("load-out", "", "also write the -load JSON report to this path")
	flag.Parse()

	if *listMachines {
		fmt.Print(machine.FormatList(machine.Default))
		return
	}

	if *load {
		os.Exit(runLoad(loadOpts{
			url: *loadURL, duration: *loadDuration, workers: *loadWorkers,
			rate: *loadRate, timeout: *loadTimeout, chaos: *loadChaos,
			out: *loadOut, quick: *quick,
		}))
	}

	cfg := core.Default()
	cfgName := "default"
	if *quick {
		cfg = core.Quick()
		cfgName = "quick"
	}

	// Each experiment returns its tables (or prose) instead of printing,
	// so text and JSON modes render the identical results.
	run := func(name string) ([]*report.Table, string, error) {
		switch name {
		case "sec2.1":
			return tables(core.Sec21(cfg))
		case "fig1":
			return tables(core.Fig1(cfg))
		case "fig2":
			return tables(core.Fig2(cfg))
		case "fig3":
			return tables(core.Fig3(cfg))
		case "fig4":
			return tables(core.Fig4())
		case "fig5":
			max := 256
			if *quick {
				max = 64
			}
			return tables(core.Fig5(max))
		case "fig6":
			return tables(core.Fig6(cfg))
		case "fig7":
			s, err := core.Fig7(cfg)
			if err != nil {
				return nil, "", err
			}
			return nil, s, nil
		case "fig8":
			return tables(core.Fig8(cfg))
		case "sp-util":
			return tables(core.SPUtilization(cfg))
		case "ablation":
			return tables(core.ModelAblation(cfg))
		case "conflicts":
			return tables(core.ConflictStudy(cfg))
		case "regroup":
			return tables(core.RegroupStudy(cfg))
		case "belady":
			return tables(core.BeladyStudy(cfg))
		case "future":
			return tables(core.FutureBalanceStudy(cfg))
		case "interchange":
			return tables(core.InterchangeStudy(cfg))
		case "regbalance":
			return tables(core.RegisterBalanceStudy(cfg))
		case "gaps":
			return tables(core.OptimalityGap(cfg))
		case "mrc":
			return tables(core.MRCStudy(cfg))
		case "stream":
			specs, err := benchMachines(*machineName)
			if err != nil {
				return nil, "", err
			}
			return []*report.Table{streamTable(specs)}, "", nil
		case "cachebench":
			specs, err := benchMachines(*machineName)
			if err != nil {
				return nil, "", err
			}
			return cacheBenchTables(specs), "", nil
		case "characterize":
			specs, err := benchMachines(*machineName)
			if err != nil {
				return nil, "", err
			}
			return characterizeTables(specs)
		default:
			return nil, "", fmt.Errorf("unknown experiment %q (want one of %v or all)", name, experiments)
		}
	}

	names := []string{*which}
	if *which == "all" {
		names = experiments
	}

	var tr *trace.Tracer
	if *traceOut != "" {
		tr = trace.New()
	}

	var out jsonOutput
	out.Config = cfgName
	out.Env = captureEnv()
	for _, name := range names {
		var span *trace.Span
		if tr != nil {
			span = tr.Start(nil, "experiment."+name)
		}
		begin := time.Now()
		ts, text, err := run(name)
		elapsed := time.Since(begin)
		span.End()
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			res := jsonResult{Experiment: name, ElapsedNS: elapsed.Nanoseconds(), Text: text}
			for _, t := range ts {
				res.Tables = append(res.Tables, jsonTable{
					Title: t.Title, Headers: t.Headers, Rows: t.Rows, Notes: t.Notes,
				})
			}
			out.Results = append(out.Results, res)
			continue
		}
		for _, t := range ts {
			fmt.Print(t)
		}
		if text != "" {
			fmt.Println(text)
		}
		if *which == "all" {
			fmt.Println()
		}
	}
	if tr != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bwbench: wrote %d spans to %s\n", tr.Len(), *traceOut)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&out); err != nil {
			fatal(err)
		}
	}
}

// captureEnv snapshots the current process's environment metadata.
func captureEnv() jsonEnv {
	e := jsonEnv{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if h, err := os.Hostname(); err == nil {
		e.Hostname = h
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if ref, err := osexec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.GitRef = strings.TrimSpace(string(ref))
	}
	return e
}

// tables adapts the core experiment signature (one table + error).
func tables(t *report.Table, err error) ([]*report.Table, string, error) {
	if err != nil {
		return nil, "", err
	}
	return []*report.Table{t}, "", nil
}

// benchMachines resolves the -machine flag for the machine-model
// experiments: one named machine, or every registered machine.
func benchMachines(name string) ([]machine.Spec, error) {
	if name != "" {
		s, err := machine.Resolve(name, 1)
		if err != nil {
			return nil, err
		}
		return []machine.Spec{s}, nil
	}
	var out []machine.Spec
	for _, e := range machine.Entries() {
		out = append(out, e.Spec)
	}
	return out, nil
}

// fitSpec scales a machine whose caches sum past fit down by a power
// of two, keeping the probes fast: stream and cachebench bandwidths
// only depend on the footprint-to-capacity ratio, so the plateaus are
// unchanged and the machine name carries the scale suffix.
func fitSpec(s machine.Spec, fit int) machine.Spec {
	total := 0
	for _, c := range s.Caches {
		total += c.Size
	}
	factor := 1
	for total > fit {
		factor, total = factor*2, total/2
	}
	if factor > 1 {
		s = machine.Scaled(s, factor)
	}
	return s
}

// streamTable builds the STREAM calibration of the machine models —
// the paper's source for the Origin2000's ~300 MB/s machine balance.
func streamTable(specs []machine.Spec) *report.Table {
	t := &report.Table{
		Title:   "STREAM calibration of the machine models",
		Headers: []string{"machine", "copy", "scale", "add", "triad", "nominal"},
	}
	for _, s := range specs {
		s = fitSpec(s, 1<<20)
		n := 4 * s.Caches[len(s.Caches)-1].Size / 8
		r := machine.Stream(s, n)
		t.AddRow(s.Name, report.MBs(r.Copy), report.MBs(r.Scale), report.MBs(r.Add),
			report.MBs(r.Triad), report.MBs(s.MemoryBandwidth()))
	}
	t.AddNote("the paper quotes ~300 MB/s STREAM bandwidth for the Origin2000")
	t.AddNote("a /N machine suffix means capacities were scaled to keep the sweep fast; bandwidths are unaffected")
	return t
}

// cacheBenchTables builds the CacheBench-style working-set sweep of
// each machine model, exposing its per-level bandwidth plateaus.
func cacheBenchTables(specs []machine.Spec) []*report.Table {
	var out []*report.Table
	for _, s := range specs {
		s = fitSpec(s, 1<<20)
		total := 0
		for _, c := range s.Caches {
			total += c.Size
		}
		maxKB := 4 * total >> 10
		if maxKB < 8 {
			maxKB = 8
		}
		t := &report.Table{
			Title:   "CacheBench calibration of the " + s.Name + " model",
			Headers: []string{"working set", "read bandwidth"},
		}
		for _, p := range machine.CacheBench(s, 4, maxKB) {
			t.AddRow(report.Bytes(p.WorkingSet), report.MBs(p.Bandwidth))
		}
		t.AddNote("plateaus at the per-level channel bandwidths")
		out = append(out, t)
	}
	return out
}

// characterizeTables runs the declared-vs-measured balance sweep
// (machine.Characterize) on each machine: one table of per-channel
// figures and one of the sweep's knee points.
func characterizeTables(specs []machine.Spec) ([]*report.Table, string, error) {
	bal := &report.Table{
		Title:   "Declared vs measured machine balance (triad working-set sweep)",
		Headers: []string{"machine", "channel", "declared BW", "measured BW", "declared B/F", "measured B/F"},
	}
	knees := &report.Table{
		Title:   "Characterization knee points (working set falls out of a level)",
		Headers: []string{"machine", "working set", "from", "to"},
	}
	for _, s := range specs {
		c, err := machine.Characterize(context.Background(), s, machine.CharacterizeOptions{})
		if err != nil {
			return nil, "", err
		}
		for i, name := range c.ChannelNames {
			bal.AddRow(c.Machine, name,
				report.MBs(c.DeclaredBW[i]), report.MBs(c.MeasuredBW[i]),
				fmt.Sprintf("%.3f", c.DeclaredBalance[i]), fmt.Sprintf("%.3f", c.MeasuredBalance[i]))
		}
		for _, k := range c.KneePoints {
			knees.AddRow(c.Machine, report.Bytes(k.WorkingSet), report.MBs(k.From), report.MBs(k.To))
		}
	}
	bal.AddNote("measured BW is the best bandwidth a STREAM-triad sweep sustained per channel; it equals declared when the channel binds")
	bal.AddNote("channels the triad never saturates report an honest lower bound")
	return []*report.Table{bal, knees}, "", nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bwbench:", err)
	os.Exit(1)
}
