package transform

import (
	"sort"
	"testing"

	"repro/internal/fusion"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/liveness"
)

// paperKernels are the programs the analysis-count tests measure.
func paperKernels(t *testing.T) map[string]*ir.Program {
	t.Helper()
	return map[string]*ir.Program{
		"fig7": kernels.Fig7Original(64),
		"fig6": kernels.Fig6Original(32),
		"fig8": kernels.Fig8Workload(48),
	}
}

// TestAnalysisCacheConsistency is the property test behind the one
// analysis result the pass manager keeps across commits: after every
// commit that kept the liveness summary (contraction and forward-only
// store elimination), the kept summary must answer every LiveAfter
// query exactly as a fresh analysis of the new program does. A failure
// here means a step that changes an array's read span kept it.
func TestAnalysisCacheConsistency(t *testing.T) {
	if testPostCommit != nil {
		t.Fatal("testPostCommit already hooked")
	}
	kept := 0
	testPostCommit = func(m *manager) {
		kept++
		checkKeptLiveness(t, m)
	}
	defer func() { testPostCommit = nil }()

	// fig6's default pipeline commits nothing (its fusion partition is
	// the identity), so sec21 stands in for it here; SP keeps the
	// summary across most of its commits. scalarelim's store
	// elimination forwards every read of t in Use, so t's last read
	// moves back to Peek: the one elimination that must drop the
	// summary, followed by a forward-only one that keeps it.
	ks := paperKernels(t)
	delete(ks, "fig6")
	ks["sec21"] = kernels.Sec21Pair(64)
	ks["sp"] = kernels.SP(16)
	ks["scalarelim"] = lang.MustParse(`program scalarelim
const N = 32
array t[N]
array u[N]
scalar s
loop Peek {
  print t[0]
}
loop Use {
  for i = 0, N - 1 {
    t[i] = i * 2
    s = s + t[i] + u[i]
    u[i] = s
  }
}
loop Show {
  print s
}
`)
	for name, p := range ks {
		if _, out, err := OptimizeVerified(p, Config{Pipeline: DefaultPipelineSpec}); err != nil {
			t.Fatalf("%s: %v", name, err)
		} else if out.Checkpoints == 0 {
			t.Fatalf("%s: pipeline committed nothing; property test exercised no state", name)
		}
	}
	if kept == 0 {
		t.Fatal("no commit kept the liveness summary")
	}
}

// checkKeptLiveness compares the manager's kept liveness summary with a
// fresh analysis of the current program: every array's nest-level read
// span, the facts LiveAfter answers from.
func checkKeptLiveness(t *testing.T, m *manager) {
	t.Helper()
	if m.live == nil {
		t.Fatal("post-commit hook ran without a kept liveness summary")
	}
	fresh, err := liveness.Analyze(m.cur)
	if err != nil {
		t.Fatalf("fresh liveness: %v", err)
	}
	for _, arr := range m.cur.Arrays {
		for ni := range m.cur.Nests {
			if got, want := m.live.LiveAfter(arr.Name, ni), fresh.LiveAfter(arr.Name, ni); got != want {
				t.Fatalf("after %d checkpoints: kept LiveAfter(%s,%d)=%v, fresh=%v",
					m.out.Checkpoints, arr.Name, ni, got, want)
			}
		}
		k, f := m.live.Arrays[arr.Name], fresh.Arrays[arr.Name]
		if k == nil || k.FirstRead != f.FirstRead || k.LastRead != f.LastRead {
			t.Fatalf("after %d checkpoints: kept read span of %s = %+v, fresh %+v",
				m.out.Checkpoints, arr.Name, k, f)
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
// against the manager's compute counters is apples-to-apples.
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

// TestAnalysisCacheHalvesAnalyses is the counter test: on the paper
// kernels, the default pipeline must execute at most half the
// deps.Analyze/liveness.Analyze runs the pre-manager pipeline did for
// the same optimization, and no more classifications.
func TestAnalysisCacheHalvesAnalyses(t *testing.T) {
	for name, p := range paperKernels(t) {
		_, out, err := OptimizeVerified(p, Config{Pipeline: DefaultPipelineSpec})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := analysisCount{
			deps:     int(out.Analysis[depsAnalysis].Computes),
			live:     int(out.Analysis[livenessAnalysis].Computes),
			classify: int(out.Analysis[reuseClassAnalysis].Computes),
		}
		if got.whole() == 0 {
			t.Fatalf("%s: no analyses counted (stats: %+v)", name, out.Analysis)
		}
		old := oldWorldAnalysisCount(t, p)
		t.Logf("%s: deps+liveness executions %d -> %d (%.1fx fewer), classifications %d -> %d",
			name, old.whole(), got.whole(), float64(old.whole())/float64(got.whole()),
			old.classify, got.classify)
		if got.whole()*2 > old.whole() {
			t.Errorf("%s: pipeline ran %d deps+liveness analyses vs %d pre-manager — less than the required 2x reduction (stats: %+v)",
				name, got.whole(), old.whole(), out.Analysis)
		}
		if got.classify > old.classify {
			t.Errorf("%s: pipeline classified more than the pre-manager pipeline (%d > %d)",
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
	if n := out.Analysis[livenessAnalysis].Computes; n != 1 {
		t.Fatalf("store-elim computed liveness %d times for one program version, want 1 (stats: %+v)",
			n, out.Analysis)
	}
	if out.Analysis[reuseClassAnalysis].Computes == 0 {
		t.Fatalf("store-elim never classified a candidate: %+v", out.Analysis)
	}
}

// TestStoreElimFiltersBeforeClassifying pins the filter order: store
// elimination classifies only arrays its liveness filter lets through.
// Classifying every (nest, array) pair first cost SP 1,779
// classifications per default pipeline.
func TestStoreElimFiltersBeforeClassifying(t *testing.T) {
	_, out, err := OptimizeVerified(kernels.SP(16), Config{Pipeline: DefaultPipelineSpec})
	if err != nil {
		t.Fatal(err)
	}
	if n := out.Analysis[reuseClassAnalysis].Computes; n == 0 || n >= 200 {
		t.Fatalf("SP(16) classified %d times, want 1..199 (stats: %+v)", n, out.Analysis)
	}
}

// TestStatsTotal checks AnalysisStats.Total: every compute counts as a
// request, seconds add up, and with nothing memoized Hits stays 0.
func TestStatsTotal(t *testing.T) {
	s := AnalysisStats{
		depsAnalysis:       {Computes: 2, Seconds: 0.5},
		reuseClassAnalysis: {Computes: 3, Seconds: 0.25},
	}
	tot := s.Total()
	if tot.Requests != 5 || tot.Hits != 0 || tot.Seconds != 0.75 {
		t.Fatalf("Total = %+v, want 5 requests / 0 hits / 0.75 s", tot)
	}
	if tot := (AnalysisStats{}).Total(); tot != (AnalysisTotal{}) {
		t.Fatalf("Total of no analyses = %+v, want zero", tot)
	}
}

// TestFusionGraphSharesDeps checks that the fuse pass builds its fusion
// graph on the dependence summary it computed: one deps compute and one
// graph compute per fuse step, and no other analysis.
func TestFusionGraphSharesDeps(t *testing.T) {
	_, out, err := OptimizeVerified(kernels.Fig7Original(64), Config{Pipeline: "fuse"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Checkpoints != 1 {
		t.Fatalf("fuse committed %d checkpoints on fig7, want 1", out.Checkpoints)
	}
	if n := out.Analysis[depsAnalysis].Computes; n != 1 {
		t.Fatalf("fuse computed deps %d times, want 1 (stats: %+v)", n, out.Analysis)
	}
	if n := out.Analysis[fusionGraphAnalysis].Computes; n != 1 {
		t.Fatalf("fuse built the fusion graph %d times, want 1 (stats: %+v)", n, out.Analysis)
	}
	if len(out.Analysis) != 2 {
		t.Fatalf("fuse ran analyses beyond deps and fusion-graph: %+v", out.Analysis)
	}
}

// TestAnalysisNamesCoverOutcome checks that AnalysisNames, which
// bwserved's pass table iterates, is sorted and names every analysis a
// default-pipeline run reports in Outcome.Analysis.
func TestAnalysisNamesCoverOutcome(t *testing.T) {
	names := AnalysisNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("AnalysisNames not sorted: %v", names)
	}
	known := map[string]bool{}
	for _, n := range names {
		known[n] = true
	}
	progs := paperKernels(t)
	progs["sp"] = kernels.SP(16)
	for name, p := range progs {
		_, out, err := OptimizeVerified(p, Config{Pipeline: DefaultPipelineSpec})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for a := range out.Analysis {
			if !known[a] {
				t.Errorf("%s: Outcome.Analysis reports %q, missing from AnalysisNames %v", name, a, names)
			}
		}
	}
}
