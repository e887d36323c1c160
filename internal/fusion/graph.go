// Package fusion implements the paper's bandwidth-minimal loop fusion
// (Section 3.1): fusion graphs with data-dependence edges,
// fusion-preventing constraints and one hyper-edge per array; exact
// two-partitioning by minimum hyper-edge cut (polynomial, Figure 5);
// the recursive-bisection heuristic for the NP-complete multi-partition
// case; the classical edge-weighted objective of Gao et al. and
// Kennedy–McKinley as a baseline; and the IR transformation that
// actually fuses the loops of a chosen partitioning.
//
// The fusion objective is the paper's Problem 3.1: divide the loops
// into an ordered sequence of partitions — respecting dependences and
// fusion-preventing constraints — minimizing the total number of
// distinct arrays summed over partitions, which (for arrays too large
// to stay cached between disjoint loops) is exactly the total memory
// transfer of the program.
package fusion

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/deps"
	"repro/internal/ir"
	"repro/internal/trace"
)

// Graph is a fusion graph. Nodes are loops (top-level nests); Arrays
// are hyper-edges connecting every node that accesses the array.
type Graph struct {
	N          int
	Labels     []string
	ArrayNames []string         // sorted, stable
	arrayNodes map[string][]int // array -> nodes accessing it
	depEdges   map[[2]int]bool  // (from, to), from before to
	preventing map[[2]int]bool  // unordered pairs, stored with low index first
}

// NewAbstract creates an empty fusion graph with n nodes for
// graph-level experiments (like the paper's Figure 4 instance).
func NewAbstract(n int, labels ...string) *Graph {
	if labels == nil {
		for i := 0; i < n; i++ {
			labels = append(labels, fmt.Sprintf("loop%d", i+1))
		}
	}
	return &Graph{
		N:          n,
		Labels:     labels,
		arrayNodes: map[string][]int{},
		depEdges:   map[[2]int]bool{},
		preventing: map[[2]int]bool{},
	}
}

// AddArray registers an array accessed by the given nodes (one
// hyper-edge). It returns an error when a node index is out of range,
// so a malformed fusion graph surfaces as a pass failure rather than a
// crash.
func (g *Graph) AddArray(name string, nodes ...int) error {
	for _, v := range nodes {
		if err := g.checkNode(v); err != nil {
			return err
		}
	}
	if _, ok := g.arrayNodes[name]; !ok {
		g.ArrayNames = append(g.ArrayNames, name)
		sort.Strings(g.ArrayNames)
	}
	set := map[int]bool{}
	for _, v := range g.arrayNodes[name] {
		set[v] = true
	}
	for _, v := range nodes {
		set[v] = true
	}
	merged := make([]int, 0, len(set))
	for v := range set {
		merged = append(merged, v)
	}
	sort.Ints(merged)
	g.arrayNodes[name] = merged
	return nil
}

// AddDep records that node from must execute before node to.
func (g *Graph) AddDep(from, to int) error {
	if err := g.checkNode(from); err != nil {
		return err
	}
	if err := g.checkNode(to); err != nil {
		return err
	}
	if from == to {
		return fmt.Errorf("fusion: self dependence on node %d", from)
	}
	g.depEdges[[2]int{from, to}] = true
	return nil
}

// AddPreventing records a fusion-preventing constraint between a and b.
func (g *Graph) AddPreventing(a, b int) error {
	if err := g.checkNode(a); err != nil {
		return err
	}
	if err := g.checkNode(b); err != nil {
		return err
	}
	if a == b {
		return fmt.Errorf("fusion: self preventing edge on node %d", a)
	}
	if a > b {
		a, b = b, a
	}
	g.preventing[[2]int{a, b}] = true
	return nil
}

func (g *Graph) checkNode(v int) error {
	if v < 0 || v >= g.N {
		return fmt.Errorf("fusion: node %d out of range [0,%d)", v, g.N)
	}
	return nil
}

// NodesOf returns the nodes accessing the named array.
func (g *Graph) NodesOf(array string) []int { return g.arrayNodes[array] }

// Prevented reports whether a and b carry a fusion-preventing
// constraint.
func (g *Graph) Prevented(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	return g.preventing[[2]int{a, b}]
}

// HasDep reports a recorded dependence from a to b.
func (g *Graph) HasDep(a, b int) bool { return g.depEdges[[2]int{a, b}] }

// Deps returns all dependence edges, sorted.
func (g *Graph) Deps() [][2]int {
	var out [][2]int
	for e := range g.depEdges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// PreventingPairs returns all fusion-preventing pairs, sorted.
func (g *Graph) PreventingPairs() [][2]int {
	var out [][2]int
	for e := range g.preventing {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Build constructs the fusion graph of a program: one node per
// top-level nest, one hyper-edge per array, dependence edges from the
// dependence analysis, and fusion-preventing constraints wherever a
// dependence forbids fusion or the outer loops are not conformable.
func Build(p *ir.Program) (*Graph, error) {
	inf, err := deps.Analyze(p)
	if err != nil {
		return nil, err
	}
	return BuildWith(p, inf)
}

// BuildWithCtx is BuildWith under a trace span parented at ctx, so the
// pipeline trace attributes graph construction separately from the
// dependence analysis feeding it.
func BuildWithCtx(ctx context.Context, p *ir.Program, inf *deps.Info) (*Graph, error) {
	_, span := trace.StartSpan(ctx, "fusion.build-graph", trace.Int("nests", int64(len(p.Nests))))
	g, err := BuildWith(p, inf)
	if err != nil {
		span.End(trace.String("error", err.Error()))
		return nil, err
	}
	span.End(trace.Int("arrays", int64(len(g.ArrayNames))),
		trace.Int("deps", int64(len(g.depEdges))),
		trace.Int("preventing", int64(len(g.preventing))))
	return g, nil
}

// BuildWith constructs the fusion graph from a precomputed dependence
// summary of the same program — the entry point for callers (like the
// pass manager's fusion step) that already computed the dependence
// info and must not pay for a second analysis.
func BuildWith(p *ir.Program, inf *deps.Info) (*Graph, error) {
	labels := make([]string, len(p.Nests))
	for i, n := range p.Nests {
		labels[i] = n.Label
	}
	g := NewAbstract(len(p.Nests), labels...)
	for i, n := range p.Nests {
		for _, a := range n.ArraysAccessed(p) {
			if err := g.AddArray(a, i); err != nil {
				return nil, err
			}
		}
	}
	for a := 0; a < len(p.Nests); a++ {
		for b := a + 1; b < len(p.Nests); b++ {
			if inf.HasDep(a, b) {
				if err := g.AddDep(a, b); err != nil {
					return nil, err
				}
			}
			if inf.Preventing(a, b) || !deps.Conformable(p, p.Nests[a], p.Nests[b]) {
				if err := g.AddPreventing(a, b); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// Partition is an ordered sequence of node groups; each group fuses
// into one loop, groups execute in sequence.
type Partition [][]int

// Identity reports whether the partition leaves the program as it is:
// every group a single nest, in program order.
func (parts Partition) Identity() bool {
	for i, group := range parts {
		if len(group) != 1 || group[0] != i {
			return false
		}
	}
	return true
}

// normalize sorts nodes within each group.
func (parts Partition) normalize() {
	for _, g := range parts {
		sort.Ints(g)
	}
}

// Validate checks the paper's correctness criteria: every node in
// exactly one partition, no fusion-preventing pair within a partition,
// and dependence edges flowing only from earlier to later partitions.
func (g *Graph) Validate(parts Partition) error {
	seen := make([]int, g.N)
	for i := range seen {
		seen[i] = -1
	}
	for pi, group := range parts {
		for _, v := range group {
			if err := g.checkNode(v); err != nil {
				return err
			}
			if seen[v] != -1 {
				return fmt.Errorf("fusion: node %d in partitions %d and %d", v, seen[v], pi)
			}
			seen[v] = pi
		}
	}
	for v, pi := range seen {
		if pi == -1 {
			return fmt.Errorf("fusion: node %d unassigned", v)
		}
	}
	for pair := range g.preventing {
		if seen[pair[0]] == seen[pair[1]] {
			return fmt.Errorf("fusion: preventing pair (%s,%s) fused together",
				g.Labels[pair[0]], g.Labels[pair[1]])
		}
	}
	for e := range g.depEdges {
		if seen[e[0]] > seen[e[1]] {
			return fmt.Errorf("fusion: dependence %s->%s reversed by partition order",
				g.Labels[e[0]], g.Labels[e[1]])
		}
	}
	return nil
}

// Cost is the paper's optimality metric: the sum over partitions of
// the number of distinct arrays accessed in the partition — the total
// number of array loads from memory.
func (g *Graph) Cost(parts Partition) int {
	total := 0
	for _, group := range parts {
		in := map[int]bool{}
		for _, v := range group {
			in[v] = true
		}
		for _, name := range g.ArrayNames {
			for _, v := range g.arrayNodes[name] {
				if in[v] {
					total++
					break
				}
			}
		}
	}
	return total
}

// NoFusionCost is the cost of leaving every loop alone.
func (g *Graph) NoFusionCost() int {
	parts := make(Partition, g.N)
	for i := 0; i < g.N; i++ {
		parts[i] = []int{i}
	}
	return g.Cost(parts)
}

// EdgeWeight returns the number of arrays shared by two nodes — the
// edge weight of the classical edge-weighted fusion formulation.
func (g *Graph) EdgeWeight(a, b int) int {
	w := 0
	for _, name := range g.ArrayNames {
		hasA, hasB := false, false
		for _, v := range g.arrayNodes[name] {
			if v == a {
				hasA = true
			}
			if v == b {
				hasB = true
			}
		}
		if hasA && hasB {
			w++
		}
	}
	return w
}

// EdgeWeightCost is the classical objective: the total weight of edges
// crossing partition boundaries (smaller is "better" under the
// edge-weighted model).
func (g *Graph) EdgeWeightCost(parts Partition) int {
	side := make([]int, g.N)
	for pi, group := range parts {
		for _, v := range group {
			side[v] = pi
		}
	}
	total := 0
	for a := 0; a < g.N; a++ {
		for b := a + 1; b < g.N; b++ {
			if side[a] != side[b] {
				total += g.EdgeWeight(a, b)
			}
		}
	}
	return total
}
