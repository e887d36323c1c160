package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/trace"
)

// opSpan names the benchmark's root span around one op. Its self time,
// the part of the op no named layer's span covers, is the ledger's
// unattributed remainder.
const opSpan = "op"

// unattributed is the ledger key of the op spans' self time.
const unattributed = "(unattributed)"

// ledger aggregates the span trees of traced ops into per-layer self
// time (span duration minus the part its children cover), per-class
// inclusive time and span counts, and executed iterations taken from
// the exec.run spans' "steps" attribute. It is safe for concurrent use.
type ledger struct {
	mu    sync.Mutex
	ops   int
	opUS  float64            // summed op span durations
	self  map[string]float64 // layer -> summed self time, µs
	incl  map[string]float64 // span class -> summed duration, µs
	count map[string]int     // span class -> spans
	iters map[string]int64   // span class -> executed iterations
	// byProgram splits op time and its unattributed part by the op's
	// "program" attribute, for the per-program coverage check.
	byProgram map[string]*coverage
}

// coverage is the op time of one program and the part of it no named
// layer covers.
type coverage struct{ opUS, unattributedUS float64 }

func (c coverage) attributed() float64 {
	if c.opUS == 0 {
		return 0
	}
	return 1 - c.unattributedUS/c.opUS
}

func newLedger() *ledger {
	return &ledger{
		self:      map[string]float64{},
		incl:      map[string]float64{},
		count:     map[string]int{},
		iters:     map[string]int64{},
		byProgram: map[string]*coverage{},
	}
}

// add folds one op's span tree into the ledger. The root must be an
// opSpan.
func (l *ledger) add(root *trace.Node) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	l.opUS += root.DurUS
	before := l.self[unattributed]
	l.walk(root, false)
	if prog, ok := root.Attrs["program"].(string); ok {
		c := l.byProgram[prog]
		if c == nil {
			c = &coverage{}
			l.byProgram[prog] = c
		}
		c.opUS += root.DurUS
		c.unattributedUS += l.self[unattributed] - before
	}
}

func (l *ledger) walk(n *trace.Node, inDifferential bool) {
	var childUS float64
	for _, c := range n.Children {
		childUS += c.DurUS
	}
	l.self[layerOf(n)] += max(0, n.DurUS-childUS)
	class := classOf(n)
	l.incl[class] += n.DurUS
	l.count[class]++
	if n.Name == "exec.run" {
		steps := intAttr(n, "steps")
		l.iters[class] += steps
		if inDifferential {
			l.iters["verify.differential"] += steps
		}
	}
	if class == "step" && n.Attrs["verdict"] == "committed" {
		l.count["step.committed"]++
	}
	inDifferential = inDifferential || n.Name == "verify.differential"
	for _, c := range n.Children {
		l.walk(c, inDifferential)
	}
}

// layerOf names the layer a span's self time is charged to. Spans the
// benchmark opens around a public call are named after the call
// ("lang.Parse", "balance.MeasureCtx") and charge their package; the
// program's own spans charge the layer they instrument.
func layerOf(n *trace.Node) string {
	switch n.Name {
	case opSpan:
		return unattributed
	case "transform.baseline", "verify.differential", "verify.structural", "sim.replay":
		return n.Name
	case "exec.run":
		return "exec." + engineOf(n)
	}
	pkg, _, _ := strings.Cut(n.Name, ".")
	switch pkg {
	case "step", "fusion":
		return "transform.rewrite"
	case "pass":
		return "transform"
	case "v1":
		return "service"
	case "http":
		return "service.http"
	}
	return pkg
}

// classOf groups spans for counting and inclusive time.
func classOf(n *trace.Node) string {
	switch {
	case n.Name == "exec.run":
		return "exec.run." + engineOf(n)
	case strings.HasPrefix(n.Name, "step."):
		return "step"
	}
	return n.Name
}

func engineOf(n *trace.Node) string {
	if e, ok := n.Attrs["engine"].(string); ok {
		return e
	}
	return "unknown"
}

// intAttr reads an integer attribute from a tree built in process
// (int64) or decoded from a service response (float64).
func intAttr(n *trace.Node, key string) int64 {
	switch v := n.Attrs[key].(type) {
	case int64:
		return v
	case float64:
		return int64(v)
	}
	return 0
}

// metrics derives the span-based per-layer metrics. Times are seconds
// per op; counts are per op.
func (l *ledger) metrics(m metrics) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ops == 0 {
		return
	}
	n := float64(l.ops)
	perOp := func(us float64) float64 { return us / 1e6 / n }
	m.set("trace.unattributed_frac", l.self[unattributed]/l.opUS)
	if l.count["transform.optimize"] > 0 {
		m.set("transform.optimize_s", perOp(l.incl["transform.optimize"]))
		m.set("transform.rewrite_s", perOp(l.self["transform.rewrite"]))
		m.set("transform.steps", float64(l.count["step"])/n)
		m.set("transform.checkpoints", float64(l.count["step.committed"])/n)
		if l.count["step"] > 0 {
			m.set("transform.commit_frac", float64(l.count["step.committed"])/float64(l.count["step"]))
		}
	}
	if l.count["transform.baseline"] > 0 {
		m.set("transform.baseline_s", perOp(l.incl["transform.baseline"]))
	}
	if l.count["verify.structural"] > 0 {
		m.set("verify.structural_s", perOp(l.incl["verify.structural"]))
	}
	if runs := l.count["verify.differential"]; runs > 0 {
		m.set("verify.differential_s", perOp(l.incl["verify.differential"]))
		m.set("verify.differential_runs", float64(runs)/n)
		m.set("verify.ns_per_iter", l.incl["verify.differential"]*1e3/float64(l.iters["verify.differential"]))
	}
	if it := l.iters["exec.run.interp"]; it > 0 {
		m.set("exec.interp_ns_per_iter", l.incl["exec.run.interp"]*1e3/float64(it))
	}
	if it := l.iters["exec.run.interp"] + l.iters["exec.run.compiled"]; it > 0 {
		m.set("exec.iterations", float64(it)/n)
	}
	if l.count["balance.measure"] > 0 {
		m.set("balance.measure_s", perOp(l.incl["balance.measure"]))
	}
	if l.count["sim.replay"] > 0 {
		m.set("sim.replay_s", perOp(l.incl["sim.replay"]))
	}
}

// print writes each layer's self time per op and share of op time,
// largest first, then the attributed share of each program's ops.
func (l *ledger) print(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ops == 0 {
		return
	}
	layers := make([]string, 0, len(l.self))
	for k := range l.self {
		layers = append(layers, k)
	}
	sort.Slice(layers, func(i, j int) bool { return l.self[layers[i]] > l.self[layers[j]] })
	fmt.Fprintf(w, "layer ledger over %d traced ops (self time per op, share of op time):\n", l.ops)
	for _, k := range layers {
		fmt.Fprintf(w, "  %-22s %12.3f ms %6.2f%%\n", k, l.self[k]/1e3/float64(l.ops), 100*l.self[k]/l.opUS)
	}
	progs := make([]string, 0, len(l.byProgram))
	for k := range l.byProgram {
		progs = append(progs, k)
	}
	sort.Strings(progs)
	for _, k := range progs {
		fmt.Fprintf(w, "  attributed share of %s ops: %.4f\n", k, l.byProgram[k].attributed())
	}
}
