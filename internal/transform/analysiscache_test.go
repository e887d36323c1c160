package transform

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/deps"
	"repro/internal/fusion"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/liveness"
)

// paperKernels are the programs the acceptance criteria measure the
// analysis cache on.
func paperKernels(t *testing.T) map[string]*ir.Program {
	t.Helper()
	return map[string]*ir.Program{
		"fig7": kernels.Fig7Original(64),
		"fig6": kernels.Fig6Original(32),
		"fig8": kernels.Fig8Workload(48),
	}
}

// TestAnalysisCacheConsistency is the property test behind the
// preserved-set declarations: after every committed checkpoint of the
// default pipeline, each cached analysis must equal a fresh
// recomputation on the new program version. A failure here means a
// pass declared it preserves an analysis its mutation can change.
func TestAnalysisCacheConsistency(t *testing.T) {
	if testPostCommit != nil {
		t.Fatal("testPostCommit already hooked")
	}
	commits := 0
	testPostCommit = func(m *manager) {
		commits++
		checkCachedAgainstFresh(t, m)
	}
	defer func() { testPostCommit = nil }()

	// fig6's default pipeline commits nothing (its fusion partition is
	// the identity), so sec21 stands in for it here.
	ks := paperKernels(t)
	delete(ks, "fig6")
	ks["sec21"] = kernels.Sec21Pair(64)
	for name, p := range ks {
		if _, out, err := OptimizeVerified(p, Config{Options: All()}); err != nil {
			t.Fatalf("%s: %v", name, err)
		} else if out.Checkpoints == 0 {
			t.Fatalf("%s: pipeline committed nothing; property test exercised no state", name)
		}
	}
	if commits == 0 {
		t.Fatal("post-commit hook never ran")
	}
}

// checkCachedAgainstFresh compares every analysis the manager can serve
// (cached or not) against a from-scratch recomputation on the current
// program, projecting each result onto comparable facts.
func checkCachedAgainstFresh(t *testing.T, m *manager) {
	t.Helper()
	p := m.am.Program()
	if p != m.cur {
		t.Fatalf("analysis manager program out of sync with pass manager")
	}

	gotDeps, err := m.am.Deps()
	if err != nil {
		t.Fatalf("cached deps: %v", err)
	}
	wantDeps, err := deps.Analyze(p)
	if err != nil {
		t.Fatalf("fresh deps: %v", err)
	}
	for a := 0; a < len(p.Nests); a++ {
		for b := a + 1; b < len(p.Nests); b++ {
			if gotDeps.HasDep(a, b) != wantDeps.HasDep(a, b) {
				t.Fatalf("gen %d: cached HasDep(%d,%d)=%v, fresh=%v",
					m.am.Generation(), a, b, gotDeps.HasDep(a, b), wantDeps.HasDep(a, b))
			}
			if gotDeps.Preventing(a, b) != wantDeps.Preventing(a, b) {
				t.Fatalf("gen %d: cached Preventing(%d,%d)=%v, fresh=%v",
					m.am.Generation(), a, b, gotDeps.Preventing(a, b), wantDeps.Preventing(a, b))
			}
		}
	}

	gotLive, err := m.am.Liveness()
	if err != nil {
		t.Fatalf("cached liveness: %v", err)
	}
	wantLive, err := liveness.Analyze(p)
	if err != nil {
		t.Fatalf("fresh liveness: %v", err)
	}
	for _, arr := range p.Arrays {
		for ni := range p.Nests {
			if gotLive.LiveAfter(arr.Name, ni) != wantLive.LiveAfter(arr.Name, ni) {
				t.Fatalf("gen %d: cached LiveAfter(%s,%d)=%v, fresh=%v",
					m.am.Generation(), arr.Name, ni, gotLive.LiveAfter(arr.Name, ni), wantLive.LiveAfter(arr.Name, ni))
			}
		}
	}

	idx, err := m.am.NestIndex()
	if err != nil {
		t.Fatalf("cached nest-index: %v", err)
	}
	if len(idx) != len(p.Nests) {
		t.Fatalf("gen %d: nest-index has %d entries, program has %d nests",
			m.am.Generation(), len(idx), len(p.Nests))
	}
	for i, n := range p.Nests {
		if idx[n.Label] != i {
			t.Fatalf("gen %d: nest-index[%s]=%d, want %d", m.am.Generation(), n.Label, idx[n.Label], i)
		}
	}

	for ni := range p.Nests {
		for _, arr := range p.Arrays {
			got := m.am.ReuseClass(ni, arr.Name)
			want := liveness.Classify(p, ni, arr.Name)
			if got.Kind != want.Kind || got.CarryVar != want.CarryVar {
				t.Fatalf("gen %d: cached class(%d,%s)={%v,%s}, fresh={%v,%s}",
					m.am.Generation(), ni, arr.Name, got.Kind, got.CarryVar, want.Kind, want.CarryVar)
			}
		}
	}
}

// analysisCount tallies whole-program analysis executions
// (deps.Analyze + liveness.Analyze) separately from the cheap
// per-(nest,array) liveness.Classify queries.
type analysisCount struct {
	deps, live, classify int
}

func (c analysisCount) whole() int { return c.deps + c.live }

// oldWorldAnalysisCount replays the pre-manager pipeline's analysis
// call pattern on p and returns how many analysis executions it
// performed:
//
//   - fuse ran two dependence analyses for its single step
//     (fusion.FuseGreedily built the graph, then Apply rebuilt it);
//   - reduce-storage ran liveness once per fixpoint scan, classified
//     every filtered candidate, and ContractArray/ShrinkArray each
//     re-classified internally;
//   - store-elim called EliminateStores per candidate, which
//     classified unconditionally and ran a full liveness analysis
//     whenever the class passed its kind check.
//
// Graph builds are not counted in either world, so the comparison
// against the manager's miss counters is apples-to-apples.
func oldWorldAnalysisCount(t *testing.T, p *ir.Program) analysisCount {
	t.Helper()
	var count analysisCount
	cur := p.Clone()
	count.deps += 2
	if fused, _, err := fusion.FuseGreedily(cur); err == nil {
		cur = fused
	}
	for changed := true; changed; {
		changed = false
		count.live++ // per-scan liveness.Analyze
		live, err := liveness.Analyze(cur)
		if err != nil {
			t.Fatal(err)
		}
		for ni := range cur.Nests {
			for _, arr := range append([]*ir.Array(nil), cur.Arrays...) {
				name := arr.Name
				if live.LiveAfter(name, ni) || !usedOnlyIn(cur, ni, name) {
					continue
				}
				count.classify++ // candidate Classify
				switch liveness.Classify(cur, ni, name).Kind {
				case liveness.ScalarLike:
					count.classify++ // ContractArray's internal Classify
					if next, err := ContractArray(cur, ni, name); err == nil {
						cur, changed = next, true
					}
				case liveness.CarryOne:
					count.classify++ // ShrinkArray's internal Classify
					if next, err := ShrinkArray(cur, ni, name); err == nil {
						cur, changed = next, true
					}
				}
				if changed {
					break
				}
			}
			if changed {
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for ni := range cur.Nests {
			for _, arr := range append([]*ir.Array(nil), cur.Arrays...) {
				name := arr.Name
				count.classify++ // EliminateStores' Classify
				cl := liveness.Classify(cur, ni, name)
				if cl.Kind != liveness.ForwardOnly && cl.Kind != liveness.ScalarLike {
					continue
				}
				count.live++ // EliminateStores' liveness.Analyze
				if next, err := EliminateStores(cur, ni, name); err == nil {
					cur, changed = next, true
				}
				if changed {
					break
				}
			}
			if changed {
				break
			}
		}
	}
	return count
}

// TestAnalysisCacheHalvesAnalyses is the acceptance criterion's counter
// test: on the paper kernels, the default pipeline under the analysis
// manager must execute at most half the deps.Analyze/liveness.Analyze
// runs the pre-manager pipeline did for the same optimization. The
// per-(nest,array) classifications are compared informationally: each
// distinct key must be computed at least once in either world, so they
// cannot shrink by a fixed factor on small kernels.
func TestAnalysisCacheHalvesAnalyses(t *testing.T) {
	for name, p := range paperKernels(t) {
		_, out, err := OptimizeVerified(p, Config{Options: All()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := analysisCount{
			deps:     int(out.Analysis[analysis.DepsName].Misses),
			live:     int(out.Analysis[analysis.LivenessName].Misses),
			classify: int(out.Analysis[analysis.ReuseClassesName].Misses),
		}
		if got.whole() == 0 {
			t.Fatalf("%s: no analyses computed through the manager (stats: %+v)", name, out.Analysis)
		}
		old := oldWorldAnalysisCount(t, p)
		t.Logf("%s: deps+liveness executions %d -> %d (%.1fx fewer), classifications %d -> %d",
			name, old.whole(), got.whole(), float64(old.whole())/float64(got.whole()),
			old.classify, got.classify)
		if got.whole()*2 > old.whole() {
			t.Errorf("%s: manager ran %d deps+liveness analyses vs %d pre-manager — less than the required 2x reduction (stats: %+v)",
				name, got.whole(), old.whole(), out.Analysis)
		}
		if got.classify > old.classify {
			t.Errorf("%s: manager classified more than the pre-manager pipeline (%d > %d)",
				name, got.classify, old.classify)
		}
	}
}

// TestStoreElimLivenessOncePerVersion pins the satellite requirement:
// store elimination runs liveness once per program version, not once
// per candidate array. With K candidate arrays and no commits, the
// pre-manager code ran K analyses; the pass must now run exactly one.
func TestStoreElimLivenessOncePerVersion(t *testing.T) {
	// Three arrays, each written then read in a later nest, so store
	// elimination finds no eliminable writeback (every array is live
	// after its writing nest) and commits nothing — one scan, one
	// program version.
	src := `program manycand
const N = 32
array a[N]
array b[N]
array c[N]
scalar s
loop W {
  for i = 0, N - 1 {
    a[i] = i
    b[i] = i + 1
    c[i] = i + 2
  }
}
loop R {
  s = 0
  for i = 0, N - 1 {
    s = s + a[i] + b[i] + c[i]
  }
  print s
}
`
	p := lang.MustParse(src)
	_, out, err := OptimizeVerified(p, Config{Pipeline: "store-elim"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Checkpoints != 0 {
		t.Fatalf("expected no commits, got %d", out.Checkpoints)
	}
	st := out.Analysis[analysis.LivenessName]
	if st.Misses != 1 {
		t.Fatalf("store-elim computed liveness %d times for one program version, want 1 (stats: %+v)",
			st.Misses, st)
	}
	if rc := out.Analysis[analysis.ReuseClassesName]; rc.Requests == 0 {
		t.Fatalf("store-elim never consulted reuse classes: %+v", out.Analysis)
	}
}

// optimizeUncached is OptimizeVerified with the analysis cache off.
func optimizeUncached(p *ir.Program, cfg Config) (*ir.Program, *Outcome, error) {
	defer func() { uncachedAnalyses = false }()
	uncachedAnalyses = true
	return OptimizeVerified(p, cfg)
}

// TestOptimizeUncachedIdentical checks the analysis cache against its
// uncached baseline: disabling memoization must not change the
// optimizer's output or action log on the paper kernels.
func TestOptimizeUncachedIdentical(t *testing.T) {
	for name, p := range paperKernels(t) {
		q1, out1, err := OptimizeVerified(p, Config{Options: All()})
		if err != nil {
			t.Fatalf("%s cached: %v", name, err)
		}
		q2, out2, err := optimizeUncached(p, Config{Options: All()})
		if err != nil {
			t.Fatalf("%s uncached: %v", name, err)
		}
		if q1.String() != q2.String() {
			t.Fatalf("%s: cached and uncached programs differ:\n%s\n---\n%s", name, q1, q2)
		}
		if fmt.Sprint(out1.Actions) != fmt.Sprint(out2.Actions) {
			t.Fatalf("%s: action logs differ:\n%v\n%v", name, out1.Actions, out2.Actions)
		}
		st := out2.Analysis.Total()
		if st.Hits != 0 {
			t.Fatalf("%s: uncached run recorded %d cache hits", name, st.Hits)
		}
	}
}
