package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's vocabulary; BENCHMARK.json lists the same
// names and units, and the self-test checks that they agree.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the pipeline sees, reported by
// every -trace 0 run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"alloc_mb_per_op", "MB/op"},
	{"sim_mem_bytes", "bytes"},
	{"opt_gap_geomean", "x"},
}

// perLayer are the ledger metrics, reported by every -trace 1 run. A
// metric a workload does not exercise reads 0. Times are seconds per
// op unless README.md says otherwise.
var perLayer = []metricDef{
	{"lang.parse_s", "s"},
	{"lang.parse_mb_per_s", "MB/s"},
	{"transform.optimize_s", "s"},
	{"transform.baseline_s", "s"},
	{"transform.rewrite_s", "s"},
	{"transform.pass.fuse_s", "s"},
	{"transform.pass.reduce-storage_s", "s"},
	{"transform.pass.store-elim_s", "s"},
	{"transform.steps", "count"},
	{"transform.checkpoints", "count"},
	{"transform.commit_frac", "frac"},
	{"analysis.s", "s"},
	{"analysis.hit_frac", "frac"},
	{"verify.differential_s", "s"},
	{"verify.differential_runs", "count"},
	{"verify.structural_s", "s"},
	{"verify.ns_per_iter", "ns/iter"},
	{"exec.interp_ns_per_iter", "ns/iter"},
	{"exec.compiled_ns_per_iter", "ns/iter"},
	{"exec.compile_s", "s"},
	{"exec.iterations", "count"},
	{"sim.ns_per_access", "ns/access"},
	{"sim.share", "frac"},
	{"sim.accesses", "count"},
	{"sim.profile_x", "x"},
	{"sim.mrc_x", "x"},
	{"sim.replay_s", "s"},
	{"bounds.analyze_s", "s"},
	{"balance.measure_s", "s"},
	{"service.exec_runs_per_req", "count"},
	{"cache.hit_frac", "frac"},
	{"service.coalesced_frac", "frac"},
	{"service.shed_frac", "frac"},
	{"trace.overhead_x", "x"},
	{"trace.unattributed_frac", "frac"},
	{"failed_frac", "frac"},
	{"degraded_frac", "frac"},
}

// value is one metric as printed in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]value

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func (m metrics) set(name string, v float64) { m[name] = value{Value: v, Unit: unitOf(name)} }

// selected returns the metrics one run reports: every end-to-end
// metric, or every per-layer metric, with 0 for a layer the workload
// does not exercise.
func (m metrics) selected(traced bool) metrics {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(metrics, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			v = value{Unit: d.unit}
		}
		out[d.name] = v
	}
	return out
}

// print writes the selected metrics as an aligned table.
func (m metrics) print(w io.Writer, traced bool) {
	sel := m.selected(traced)
	names := make([]string, 0, len(sel))
	for n := range sel {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, sel[n].Value, sel[n].Unit)
	}
}

// recorder collects the ops of one measured loop. It is safe for
// concurrent use by the serve-mixed clients.
type recorder struct {
	mu       sync.Mutex
	start    time.Time       // when the loop began
	wall     time.Duration   // how long the loop ran
	lat      []float64       // op latencies in ms, in completion order
	class    []string        // what each op did, when the loop repeats a fixed set of ops
	done     []time.Duration // op completion times, from start
	failed   int
	degraded int
	failures []string // the first few failure messages
	ledger   *ledger  // nil outside the traced phase
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

// maxFailureNotes bounds how many failure messages a run keeps.
const maxFailureNotes = 5

// op records one finished op of the given class ("" for a loop without
// fixed classes). A non-nil err marks it failed.
func (r *recorder) op(class string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat = append(r.lat, float64(d.Nanoseconds())/1e6)
	r.class = append(r.class, class)
	r.done = append(r.done, time.Since(r.start))
	if err != nil {
		r.failLocked(err)
	}
}

// Throughput and the median latency are estimated so that a burst of
// interference from outside the process moves one sample, not the run.
//
// A loop that repeats a fixed set of ops (a panel, a sweep) takes each
// op class's median latency over the run; a unit of the loop, one of
// each class, then lasts the sum of those medians, and the median op is
// the median of them. A loop without classes (serve-mixed) is cut into
// units of unitOps consecutive completions, each lasting from the
// previous unit's last completion to its own; the rate and the median
// latency are the medians over units.

// classMedians returns each op class's median latency in ms, or nil
// when the ops carry no class.
func (r *recorder) classMedians() []float64 {
	byClass := map[string][]float64{}
	for i, c := range r.class {
		if c == "" {
			return nil
		}
		byClass[c] = append(byClass[c], r.lat[i])
	}
	meds := make([]float64, 0, len(byClass))
	for _, c := range sortedKeys(byClass) {
		meds = append(meds, median(byClass[c]))
	}
	return meds
}

// unitOps is the number of completions in a unit of a loop without
// op classes.
const unitOps = 100

// units returns each unit's ops per second and median latency. A loop
// shorter than one unit is one unit.
func (r *recorder) units() (rates, meds []float64) {
	k := min(unitOps, len(r.done))
	var from time.Duration
	for first := 0; k > 0 && first+k <= len(r.done); first += k {
		to := r.done[first+k-1]
		rates = append(rates, float64(k)/(to-from).Seconds())
		meds = append(meds, median(r.lat[first:first+k]))
		from = to
	}
	return rates, meds
}

// throughput is the loop's typical ops per second.
func (r *recorder) throughput() float64 {
	if meds := r.classMedians(); meds != nil {
		var sum float64
		for _, m := range meds {
			sum += m
		}
		return float64(len(meds)) / (sum / 1e3)
	}
	rates, _ := r.units()
	return median(rates)
}

// medianMS is the loop's typical median op latency in ms.
func (r *recorder) medianMS() float64 {
	if meds := r.classMedians(); meds != nil {
		return median(meds)
	}
	_, meds := r.units()
	return median(meds)
}

// fail marks an already recorded op failed, for checks made after it.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(err)
}

func (r *recorder) failLocked(err error) {
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *recorder) ops() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.lat)
}

// degrade counts one response served below full service.
func (r *recorder) degrade() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.degraded++
}

// merge adds o's ops to r for the result line and the failure
// counts; r keeps its own timing and ledger.
func (r *recorder) merge(o *recorder) {
	r.lat = append(r.lat, o.lat...)
	r.class = append(r.class, o.class...)
	r.failed += o.failed
	r.degraded += o.degraded
	for _, f := range o.failures {
		if len(r.failures) < maxFailureNotes {
			r.failures = append(r.failures, f)
		}
	}
}

func (r *recorder) printFailures(w io.Writer) {
	if r.failed == 0 {
		return
	}
	fmt.Fprintf(w, "%d failed ops; first failures:\n  %s\n", r.failed, strings.Join(r.failures, "\n  "))
}
