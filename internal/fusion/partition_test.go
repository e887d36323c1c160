package fusion

import (
	"fmt"
	"math/rand"
	"testing"
)

// bruteTwoPartition returns the fewest arrays loaded by both sides over
// every bipartition with s first and t second that keeps each
// dependence x->y from running backwards (x second, y first), or -1 if
// no such bipartition exists.
func bruteTwoPartition(g *Graph, s, t int) int {
	best := -1
	first := make([]bool, g.N)
	for mask := 0; mask < 1<<g.N; mask++ {
		for v := range first {
			first[v] = mask&(1<<v) != 0
		}
		if !first[s] || first[t] {
			continue
		}
		feasible := true
		for e := range g.depEdges {
			if !first[e[0]] && first[e[1]] {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		cut := 0
		for _, name := range g.ArrayNames {
			if touchesBoth(g.NodesOf(name), first) {
				cut++
			}
		}
		if best < 0 || cut < best {
			best = cut
		}
	}
	return best
}

func touchesBoth(nodes []int, first []bool) bool {
	in1, in2 := false, false
	for _, v := range nodes {
		if first[v] {
			in1 = true
		} else {
			in2 = true
		}
	}
	return in1 && in2
}

// Property: on random abstract graphs — hyper-edges of 1-3 loops, some
// holding both terminals, and random dependence arcs (cycles and
// backward chains included) — TwoPartition fails exactly when no
// dependence-respecting bipartition exists, and otherwise returns one
// with s first and t second whose cut is minimum and is exactly the set
// of arrays touching both sides.
func TestTwoPartitionMatchesBruteForce(t *testing.T) {
	feasible := 0
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		s, tt := 0, n-1
		g := NewAbstract(n)
		for k := 1 + rng.Intn(7); k > 0; k-- {
			nodes := make([]int, 1+rng.Intn(3))
			for i := range nodes {
				nodes[i] = rng.Intn(n)
			}
			if err := g.AddArray(fmt.Sprintf("A%d", k), nodes...); err != nil {
				t.Fatal(err)
			}
		}
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if x != y && rng.Intn(8) == 0 {
					if err := g.AddDep(x, y); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		want := bruteTwoPartition(g, s, tt)
		parts, cut, err := g.TwoPartition(s, tt)
		if want < 0 {
			if err == nil {
				t.Fatalf("seed %d: no bipartition respects the dependences %v, yet TwoPartition returned %v", seed, g.Deps(), parts)
			}
			continue
		}
		feasible++
		if err != nil {
			t.Fatalf("seed %d: %v (brute force finds a cut of %d)", seed, err, want)
		}
		if len(cut) != want {
			t.Fatalf("seed %d: cut %v has %d arrays, brute force %d", seed, cut, len(cut), want)
		}
		if err := g.Validate(parts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(parts) != 2 || !contains(parts[0], s) || !contains(parts[1], tt) {
			t.Fatalf("seed %d: partition %v does not put %d first and %d second", seed, parts, s, tt)
		}
		first := make([]bool, n)
		for _, v := range parts[0] {
			first[v] = true
		}
		inCut := map[string]bool{}
		for _, name := range cut {
			inCut[name] = true
		}
		for _, name := range g.ArrayNames {
			if both := touchesBoth(g.NodesOf(name), first); both != inCut[name] {
				t.Fatalf("seed %d: array %s touches both sides = %v, in cut %v = %v (partition %v)",
					seed, name, both, cut, inCut[name], parts)
			}
		}
	}
	if feasible < 250 {
		t.Fatalf("only %d of 500 instances were feasible; the generator lost its coverage", feasible)
	}
}

// Property: on random graphs too large to enumerate — up to 24 loops,
// arrays of 1-4 loops, dependence arcs that only run forward (so a
// bipartition with loop 0 first and the last loop second always exists)
// — TwoPartition never refuses, and its partition covers every loop
// once, puts s first and t second, keeps every dependence in order, and
// leaves no array outside the cut touching both sides.
func TestTwoPartitionPropertyPartitionsValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(17)
		s, tt := 0, n-1
		g := NewAbstract(n)
		for k := n + rng.Intn(n); k > 0; k-- {
			nodes := make([]int, 1+rng.Intn(4))
			for i := range nodes {
				nodes[i] = rng.Intn(n)
			}
			if err := g.AddArray(fmt.Sprintf("A%d", k), nodes...); err != nil {
				t.Fatal(err)
			}
		}
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				if rng.Intn(n) == 0 {
					if err := g.AddDep(x, y); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		parts, cut, err := g.TwoPartition(s, tt)
		if err != nil {
			t.Fatalf("seed %d: forward dependences only, yet %v", seed, err)
		}
		if err := g.Validate(parts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(parts) != 2 || !contains(parts[0], s) || !contains(parts[1], tt) {
			t.Fatalf("seed %d: partition %v does not put %d first and %d second", seed, parts, s, tt)
		}
		first := make([]bool, n)
		for _, v := range parts[0] {
			first[v] = true
		}
		inCut := map[string]bool{}
		for _, name := range cut {
			inCut[name] = true
		}
		for _, name := range g.ArrayNames {
			if !inCut[name] && touchesBoth(g.NodesOf(name), first) {
				t.Fatalf("seed %d: array %s outside the cut %v touches both sides of %v", seed, name, cut, parts)
			}
		}
	}
}

// twoPartitionArrays builds an abstract graph of n loops without
// dependences, one array A<k> per entry of arrays, runs TwoPartition
// between the first and the last loop, and checks that the result is a
// valid partition with s first and t second.
func twoPartitionArrays(t *testing.T, n int, arrays ...[]int) (Partition, []string) {
	t.Helper()
	g := NewAbstract(n)
	for k, nodes := range arrays {
		if err := g.AddArray(fmt.Sprintf("A%d", k), nodes...); err != nil {
			t.Fatal(err)
		}
	}
	parts, cut, err := g.TwoPartition(0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(parts); err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || !contains(parts[0], 0) || !contains(parts[1], n-1) {
		t.Fatalf("partition %v does not put %d first and %d second", parts, 0, n-1)
	}
	return parts, cut
}

// Loop 0 -A0- loop 1 -A1- loop 2: one array separates the terminals.
func TestTwoPartitionChain(t *testing.T) {
	if _, cut := twoPartitionArrays(t, 3, []int{0, 1}, []int{1, 2}); len(cut) != 1 {
		t.Fatalf("cut = %v, want one array", cut)
	}
}

// One array over three loops plus a chain array: either alone
// separates loop 0 from loop 3.
func TestTwoPartitionSharedArray(t *testing.T) {
	if _, cut := twoPartitionArrays(t, 4, []int{0, 1, 2}, []int{2, 3}); len(cut) != 1 {
		t.Fatalf("cut = %v, want one array", cut)
	}
}

// Two array-disjoint paths from loop 0 to loop 3: each must be cut.
func TestTwoPartitionParallelPaths(t *testing.T) {
	_, cut := twoPartitionArrays(t, 4, []int{0, 1}, []int{1, 3}, []int{0, 2}, []int{2, 3})
	if len(cut) != 2 {
		t.Fatalf("cut = %v, want two arrays", cut)
	}
}

// No array joins loop 0 to loop 2: the cut is empty.
func TestTwoPartitionDisconnectedTerminals(t *testing.T) {
	if _, cut := twoPartitionArrays(t, 3, []int{0, 1}); len(cut) != 0 {
		t.Fatalf("cut = %v, want none", cut)
	}
}

// An array accessed by both terminals cannot be separated; the cut pays
// for it once, meaning both partitions load it, and cuts nothing else.
func TestTwoPartitionArrayOnBothTerminals(t *testing.T) {
	_, cut := twoPartitionArrays(t, 3, []int{0, 2}, []int{0, 1})
	if len(cut) != 1 || cut[0] != "A0" {
		t.Fatalf("cut = %v, want [A0]", cut)
	}
}

// A four-loop chain: the two partitions are disjoint, cover every loop,
// and hold s and t on their own sides.
func TestTwoPartitionPartitionsCover(t *testing.T) {
	parts, cut := twoPartitionArrays(t, 4, []int{0, 1}, []int{1, 2}, []int{2, 3})
	if len(cut) != 1 {
		t.Fatalf("cut = %v, want one array", cut)
	}
	if got := len(parts[0]) + len(parts[1]); got != 4 {
		t.Fatalf("partition %v covers %d loops, want 4", parts, got)
	}
}

// The paper's Figure 4 as a bare hyper-graph, without its dependence or
// fusion-preventing constraint: terminals loop 5 and loop 6. Only array
// A is accessed on both sides of the minimum cut, loop 5 is alone in
// the first partition (the paper's optimal fusion leaves it unfused),
// and the total transfer is 6 arrays + 1 reload = 7.
func TestTwoPartitionPaperFigure4(t *testing.T) {
	g := NewAbstract(6)
	l := func(i int) int { return i - 1 }
	g.AddArray("A", l(1), l(2), l(3), l(5))
	g.AddArray("D", l(1), l(2), l(3), l(4))
	g.AddArray("E", l(1), l(2), l(3), l(4))
	g.AddArray("F", l(1), l(2), l(3), l(4))
	g.AddArray("B", l(4), l(6))
	g.AddArray("C", l(4), l(6))
	parts, cut, err := g.TwoPartition(l(5), l(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) != 1 || cut[0] != "A" {
		t.Fatalf("cut = %v, want [A]", cut)
	}
	if len(parts) != 2 || len(parts[0]) != 1 || parts[0][0] != l(5) {
		t.Fatalf("partition %v, want loop 5 alone first", parts)
	}
	if total := len(g.ArrayNames) + len(cut); total != 7 || g.Cost(parts) != 7 {
		t.Fatalf("total transfer = %d arrays (Cost %d), want 7", total, g.Cost(parts))
	}
}
