// Package maxflow implements the Edmonds–Karp maximum-flow algorithm
// (Ford–Fulkerson with breadth-first augmenting paths) on a residual
// network, plus the residual reachability that reads a minimum cut off
// a maximum flow.
//
// It is the engine behind the fusion pass's bandwidth-minimal
// two-partitioning (fusion.Graph.TwoPartition, the paper's Figure 5
// reduction): that pass builds the node-split network itself, and this
// package only solves it.
//
// Failure semantics: NewNetwork, AddEdge and MaxFlow panic on misuse —
// negative vertex counts, edges out of range, negative capacities,
// source equal to sink. These are programmer-error invariants: every
// index is computed by the caller from its own construction, never
// from external input, so a violation is a bug in the caller, not a
// recoverable condition; the optimizer pipeline runs every pass under
// panic containment, so even an invariant violation degrades to a
// skipped pass rather than a crash.
package maxflow

import "fmt"

// Inf is the capacity used for edges that must never be cut.
const Inf int64 = 1 << 60

// edge is one direction of a residual edge pair.
type edge struct {
	to  int
	cap int64 // residual capacity
	rev int   // index of the reverse edge in net[to]
}

// Network is a flow network over vertices 0..N-1 supporting parallel
// edges and integer capacities.
type Network struct {
	adj [][]edge
}

// NewNetwork returns a flow network with n vertices.
func NewNetwork(n int) *Network {
	if n < 0 {
		panic("maxflow: negative vertex count")
	}
	return &Network{adj: make([][]edge, n)}
}

// AddEdge adds a directed edge u->v with the given capacity and returns
// an opaque handle usable with Saturated.
func (f *Network) AddEdge(u, v int, cap int64) EdgeID {
	if u < 0 || u >= len(f.adj) || v < 0 || v >= len(f.adj) {
		panic(fmt.Sprintf("maxflow: edge (%d,%d) out of range [0,%d)", u, v, len(f.adj)))
	}
	if cap < 0 {
		panic("maxflow: negative capacity")
	}
	f.adj[u] = append(f.adj[u], edge{to: v, cap: cap, rev: len(f.adj[v])})
	f.adj[v] = append(f.adj[v], edge{to: u, cap: 0, rev: len(f.adj[u]) - 1})
	return EdgeID{u: u, i: len(f.adj[u]) - 1, orig: cap}
}

// EdgeID identifies an edge added with AddEdge.
type EdgeID struct {
	u, i int
	orig int64
}

// Saturated reports whether the identified edge carries its full capacity.
func (f *Network) Saturated(id EdgeID) bool {
	return f.adj[id.u][id.i].cap == 0 && id.orig > 0
}

// MaxFlow computes the maximum s-t flow using Edmonds–Karp and returns
// its value. It may be called once per network; capacities are consumed.
func (f *Network) MaxFlow(s, t int) int64 {
	if s == t {
		panic("maxflow: source equals sink")
	}
	var total int64
	prevV := make([]int, len(f.adj))
	prevE := make([]int, len(f.adj))
	for {
		// BFS over residual edges.
		for i := range prevV {
			prevV[i] = -1
		}
		prevV[s] = s
		queue := []int{s}
		for len(queue) > 0 && prevV[t] == -1 {
			u := queue[0]
			queue = queue[1:]
			for ei := range f.adj[u] {
				e := &f.adj[u][ei]
				if e.cap > 0 && prevV[e.to] == -1 {
					prevV[e.to] = u
					prevE[e.to] = ei
					queue = append(queue, e.to)
				}
			}
		}
		if prevV[t] == -1 {
			return total
		}
		// Find bottleneck.
		aug := Inf
		for v := t; v != s; v = prevV[v] {
			e := &f.adj[prevV[v]][prevE[v]]
			if e.cap < aug {
				aug = e.cap
			}
		}
		// Apply.
		for v := t; v != s; v = prevV[v] {
			e := &f.adj[prevV[v]][prevE[v]]
			e.cap -= aug
			f.adj[v][e.rev].cap += aug
		}
		total += aug
	}
}

// ResidualReachable returns, after MaxFlow has run, the set of vertices
// reachable from s in the residual graph — the source side of a minimum
// cut.
func (f *Network) ResidualReachable(s int) []bool {
	seen := make([]bool, len(f.adj))
	seen[s] = true
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range f.adj[u] {
			if e.cap > 0 && !seen[e.to] {
				seen[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	return seen
}
