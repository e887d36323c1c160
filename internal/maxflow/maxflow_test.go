package maxflow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimpleChain(t *testing.T) {
	// s -> a -> t with capacities 3, 2: flow limited to 2.
	f := NewNetwork(3)
	f.AddEdge(0, 1, 3)
	f.AddEdge(1, 2, 2)
	if got := f.MaxFlow(0, 2); got != 2 {
		t.Fatalf("flow = %d, want 2", got)
	}
}

func TestParallelPaths(t *testing.T) {
	// Two disjoint unit paths s->a->t and s->b->t.
	f := NewNetwork(4)
	f.AddEdge(0, 1, 1)
	f.AddEdge(1, 3, 1)
	f.AddEdge(0, 2, 1)
	f.AddEdge(2, 3, 1)
	if got := f.MaxFlow(0, 3); got != 2 {
		t.Fatalf("flow = %d, want 2", got)
	}
}

func TestClassicCLRS(t *testing.T) {
	// The classic CLRS figure-26 network; max flow is 23.
	f := NewNetwork(6)
	s, v1, v2, v3, v4, tk := 0, 1, 2, 3, 4, 5
	f.AddEdge(s, v1, 16)
	f.AddEdge(s, v2, 13)
	f.AddEdge(v1, v3, 12)
	f.AddEdge(v2, v1, 4)
	f.AddEdge(v2, v4, 14)
	f.AddEdge(v3, v2, 9)
	f.AddEdge(v3, tk, 20)
	f.AddEdge(v4, v3, 7)
	f.AddEdge(v4, tk, 4)
	if got := f.MaxFlow(s, tk); got != 23 {
		t.Fatalf("flow = %d, want 23", got)
	}
}

func TestDisconnected(t *testing.T) {
	f := NewNetwork(2)
	if got := f.MaxFlow(0, 1); got != 0 {
		t.Fatalf("flow = %d, want 0", got)
	}
}

func TestEdgeFlowAndSaturated(t *testing.T) {
	// s -5-> a -3-> t: the 3 units saturate the second edge only.
	f := NewNetwork(3)
	e1 := f.AddEdge(0, 1, 5)
	e2 := f.AddEdge(1, 2, 3)
	if got := f.MaxFlow(0, 2); got != 3 {
		t.Fatalf("flow = %d, want 3", got)
	}
	if !f.Saturated(e2) {
		t.Fatal("e2 should be saturated")
	}
	if f.Saturated(e1) {
		t.Fatal("e1 should not be saturated")
	}
}

func TestParallelEdges(t *testing.T) {
	f := NewNetwork(2)
	f.AddEdge(0, 1, 1)
	f.AddEdge(0, 1, 2)
	if got := f.MaxFlow(0, 1); got != 3 {
		t.Fatalf("flow = %d, want 3", got)
	}
}

// Property: on random unit-capacity graphs, the edges leaving the
// residual-reachable set after MaxFlow number exactly the flow value
// and disconnect s from t — a cut whose value equals the flow, hence a
// minimum one (max-flow/min-cut duality).
func TestMaxFlowMinCutProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		var edges [][2]int
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, [2]int{u, v})
			}
		}
		net := NewNetwork(n)
		for _, e := range edges {
			net.AddEdge(e[0], e[1], 1)
		}
		total := net.MaxFlow(0, n-1)
		seen := net.ResidualReachable(0)
		if seen[n-1] {
			return false // t still reachable: the flow was not maximum
		}
		// Removing the edges that cross the residual cut must
		// disconnect s from t.
		var cut int64
		adj := make([][]int, n)
		for _, e := range edges {
			if seen[e[0]] && !seen[e[1]] {
				cut++
				continue
			}
			adj[e[0]] = append(adj[e[0]], e[1])
		}
		if cut != total {
			return false
		}
		reach := make([]bool, n)
		reach[0] = true
		q := []int{0}
		for len(q) > 0 {
			u := q[0]
			q = q[1:]
			for _, v := range adj[u] {
				if !reach[v] {
					reach[v] = true
					q = append(q, v)
				}
			}
		}
		return !reach[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Four vertices, five unit edges: the flow is 2, and exactly two edges
// leave the residual-reachable set.
func TestResidualCutMatchesFlow(t *testing.T) {
	edges := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 2}}
	net := NewNetwork(4)
	for _, e := range edges {
		net.AddEdge(e[0], e[1], 1)
	}
	if got := net.MaxFlow(0, 3); got != 2 {
		t.Fatalf("flow = %d, want 2", got)
	}
	seen := net.ResidualReachable(0)
	cut := 0
	for _, e := range edges {
		if seen[e[0]] && !seen[e[1]] {
			cut++
		}
	}
	if cut != 2 {
		t.Fatalf("%d edges cross the residual cut, want 2", cut)
	}
}

// nodeSplitCut finds a minimum vertex cut between s and t in a directed
// graph the way the fusion pass cuts arrays: every vertex v becomes an
// arc in(v)=2v -> out(v)=2v+1 of capacity 1 (Inf for s and t), every
// graph edge u->v an Inf arc out(u) -> in(v). It returns the flow and
// the vertices whose split arc crosses the residual cut.
func nodeSplitCut(n int, edges [][2]int, s, t int) ([]int, int64) {
	net := NewNetwork(2 * n)
	for v := 0; v < n; v++ {
		c := int64(1)
		if v == s || v == t {
			c = Inf
		}
		net.AddEdge(2*v, 2*v+1, c)
	}
	for _, e := range edges {
		net.AddEdge(2*e[0]+1, 2*e[1], Inf)
	}
	flow := net.MaxFlow(2*s+1, 2*t)
	if flow >= Inf {
		return nil, flow
	}
	seen := net.ResidualReachable(2*s + 1)
	var cut []int
	for v := 0; v < n; v++ {
		if seen[2*v] && !seen[2*v+1] {
			cut = append(cut, v)
		}
	}
	return cut, flow
}

// s -> a -> t: only vertex a separates them.
func TestNodeSplitCutChain(t *testing.T) {
	cut, flow := nodeSplitCut(3, [][2]int{{0, 1}, {1, 2}}, 0, 2)
	if flow != 1 || len(cut) != 1 || cut[0] != 1 {
		t.Fatalf("cut=%v flow=%d", cut, flow)
	}
}

// s -> a -> t, s -> b -> t: both a and b must be cut.
func TestNodeSplitCutDiamond(t *testing.T) {
	cut, flow := nodeSplitCut(4, [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}}, 0, 3)
	if flow != 2 || len(cut) != 2 {
		t.Fatalf("cut=%v flow=%d, want two vertices", cut, flow)
	}
}

// No path from s to t: no flow, empty cut.
func TestNodeSplitCutDisconnected(t *testing.T) {
	cut, flow := nodeSplitCut(3, nil, 0, 2)
	if flow != 0 || len(cut) != 0 {
		t.Fatalf("cut=%v flow=%d, want empty", cut, flow)
	}
}

// An edge s -> t leaves no finite vertex cut: the flow reaches Inf (the
// signal the fusion pass reads as "no feasible partition") without
// overflowing.
func TestNodeSplitCutAdjacentTerminals(t *testing.T) {
	if _, flow := nodeSplitCut(3, [][2]int{{0, 2}, {0, 1}, {1, 2}}, 0, 2); flow < Inf || flow > 2*Inf {
		t.Fatalf("flow = %d, want at least Inf = %d", flow, Inf)
	}
}

// verifyCutDisconnects checks that removing cut vertices disconnects s,t.
func verifyCutDisconnects(n int, edges [][2]int, cut []int, s, t int) bool {
	removed := make([]bool, n)
	for _, v := range cut {
		removed[v] = true
	}
	adj := make([][]int, n)
	for _, e := range edges {
		if !removed[e[0]] && !removed[e[1]] {
			adj[e[0]] = append(adj[e[0]], e[1])
		}
	}
	seen := make([]bool, n)
	seen[s] = true
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return !seen[t]
}

// bruteVertexCut finds the minimum unit-weight vertex cut by enumeration.
func bruteVertexCut(n int, edges [][2]int, s, t int) int {
	best := n + 1
	inner := []int{}
	for v := 0; v < n; v++ {
		if v != s && v != t {
			inner = append(inner, v)
		}
	}
	for mask := 0; mask < 1<<len(inner); mask++ {
		var cut []int
		for i, v := range inner {
			if mask&(1<<i) != 0 {
				cut = append(cut, v)
			}
		}
		if len(cut) >= best {
			continue
		}
		if verifyCutDisconnects(n, edges, cut, s, t) {
			best = len(cut)
		}
	}
	return best
}

// Property: on random graphs without a direct s-t edge, the node-split
// cut matches brute force and actually disconnects s from t.
func TestNodeSplitCutMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5) // small enough for brute force
		s, tt := 0, n-1
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || (u == s && v == tt) || (u == tt && v == s) {
					continue
				}
				if rng.Intn(4) == 0 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		cut, flow := nodeSplitCut(n, edges, s, tt)
		if int64(len(cut)) != flow {
			return false
		}
		if !verifyCutDisconnects(n, edges, cut, s, tt) {
			return false
		}
		return int(flow) == bruteVertexCut(n, edges, s, tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
