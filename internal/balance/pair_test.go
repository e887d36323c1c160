package balance

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/verify"
)

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

// producerConsumer is a chain the default pipeline fuses, contracts and
// store-eliminates correctly, committing more than one pass.
const producerConsumer = `program chain
const N = 4096
array t1[N]
array t2[N]
scalar s
loop P1 { for i = 0, N-1 { t1[i] = i * 0.5 } }
loop P2 { for i = 0, N-1 { t2[i] = t1[i] + 1 } }
loop P3 {
  for i = 0, N-1 { s = s + t2[i] }
  print s
}
`

// optimizeDefault runs the paper's pipeline with verification off and
// returns its snapshot of every committed pass.
func optimizeDefault(t *testing.T, src string) (*ir.Program, *ir.Program, []transform.PassSnapshot) {
	t.Helper()
	p := lang.MustParse(src)
	q, out, err := transform.OptimizeVerified(p, transform.Config{Options: transform.All()})
	if err != nil {
		t.Fatal(err)
	}
	return p, q, out.Snapshots
}

// TestMeasurePairRefusesDivergence: the miscompiled sibling-loop
// program is refused with the divergence, however loose the options.
func TestMeasurePairRefusesDivergence(t *testing.T) {
	p, q, snaps := optimizeDefault(t, siblingLoops)
	for _, opts := range []Options{{}, {Bounds: true, Profile: true}} {
		pair, err := MeasurePair(context.Background(), p, q, snaps, []machine.Spec{machine.Origin2000()}, opts, 0)
		if pair != nil || err == nil {
			t.Fatalf("opts %+v: miscompile measured: %+v", opts, pair)
		}
		var d *verify.Divergence
		if !errors.As(err, &d) {
			t.Fatalf("opts %+v: error %v does not wrap a *verify.Divergence", opts, err)
		}
		if !strings.Contains(err.Error(), "original 24, transformed 36") {
			t.Fatalf("opts %+v: error %q does not name the divergence", opts, err)
		}
	}
}

// TestMeasurePairRunsEachProgramOnce: one balance.measure span per
// program, however many machines the pair is measured on.
func TestMeasurePairRunsEachProgramOnce(t *testing.T) {
	p, q, _ := optimizeDefault(t, producerConsumer)
	for _, specs := range [][]machine.Spec{
		{machine.Origin2000()},
		{machine.Origin2000(), machine.Exemplar(), machine.SkylakeSP(), machine.A64FX()},
	} {
		tr := trace.New()
		root := tr.Start(nil, "test")
		pair, err := MeasurePair(trace.NewContext(context.Background(), root), p, q, nil, specs, Options{Bounds: true}, 0)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		if len(pair.Before) != len(specs) || len(pair.After) != len(specs) {
			t.Fatalf("%d machines: %d before and %d after reports", len(specs), len(pair.Before), len(pair.After))
		}
		for i, spec := range specs {
			if pair.Before[i].Machine != spec.Name || pair.After[i].Machine != spec.Name {
				t.Fatalf("report %d is for %s/%s, want %s", i, pair.Before[i].Machine, pair.After[i].Machine, spec.Name)
			}
		}
		runs := 0
		trace.Walk(tr.Tree(), func(n *trace.Node) {
			if n.Name == "balance.measure" {
				runs++
			}
		})
		if runs != 2 {
			t.Fatalf("%d machines: %d balance.measure spans, want 2", len(specs), runs)
		}
	}
}

// TestPassSnapshotsStayAsRecorded: a snapshot is the pipeline's own
// checkpoint, not a copy, so nothing may mutate it afterwards. After a
// profiled MeasurePair, which assigns reference sites to what it runs,
// every snapshot prints the text it printed when the pipeline returned
// and carries no site, and the last one is the optimized program.
func TestPassSnapshotsStayAsRecorded(t *testing.T) {
	p, q, snaps := optimizeDefault(t, producerConsumer)
	if len(snaps) < 2 || snaps[len(snaps)-1].Program != q {
		t.Fatalf("%d snapshots, want at least 2, the last the optimized program", len(snaps))
	}
	want := make([]string, len(snaps))
	for i, snap := range snaps {
		want[i] = snap.Program.String()
	}
	opts := Options{Profile: true, MRC: true, Bounds: true}
	if _, err := MeasurePair(context.Background(), p, q, snaps, []machine.Spec{machine.Origin2000()}, opts, 0); err != nil {
		t.Fatal(err)
	}
	for i, snap := range snaps {
		if got := snap.Program.String(); got != want[i] {
			t.Fatalf("snapshot %d (%s) changed:\n%s\nwas\n%s", i, snap.Pass, got, want[i])
		}
		for _, n := range snap.Program.Nests {
			ir.WalkRefs(n.Body, snap.Program, func(r *ir.Ref, _ bool) {
				if r.Site != 0 {
					t.Fatalf("snapshot %d (%s): %s carries site %d", i, snap.Pass, r.Name, r.Site)
				}
			})
		}
	}
}

// TestMeasurePairDeltasOnlyWhenProfiled: the pass deltas exist only
// for a profiled pair, one per snapshot, and chain from the original's
// traffic to the optimized program's.
func TestMeasurePairDeltasOnlyWhenProfiled(t *testing.T) {
	p, q, snaps := optimizeDefault(t, producerConsumer)
	if len(snaps) < 2 {
		t.Fatalf("%d snapshots, want at least 2 for the chain to mean something", len(snaps))
	}
	specs := []machine.Spec{machine.Origin2000()}
	plain, err := MeasurePair(context.Background(), p, q, snaps, specs, Options{Bounds: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Deltas != nil {
		t.Fatalf("unprofiled pair has deltas %+v", plain.Deltas)
	}
	prof, err := MeasurePair(context.Background(), p, q, snaps, specs, Options{Profile: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Deltas) != len(snaps) {
		t.Fatalf("%d deltas for %d snapshots", len(prof.Deltas), len(snaps))
	}
	if got, want := prof.Deltas[0].MemoryBefore, prof.Before[0].MemoryBytes; got != want {
		t.Fatalf("first delta starts at %d B, original moved %d B", got, want)
	}
	for i := 1; i < len(prof.Deltas); i++ {
		if prof.Deltas[i].MemoryBefore != prof.Deltas[i-1].MemoryAfter {
			t.Fatalf("delta %d starts at %d B, delta %d ended at %d B", i,
				prof.Deltas[i].MemoryBefore, i-1, prof.Deltas[i-1].MemoryAfter)
		}
	}
	if got, want := prof.Deltas[len(prof.Deltas)-1].MemoryAfter, prof.After[0].MemoryBytes; got != want {
		t.Fatalf("last delta ends at %d B, optimized program moved %d B", got, want)
	}
	none, err := MeasurePair(context.Background(), p, q, nil, specs, Options{Profile: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if none.Deltas != nil {
		t.Fatalf("profiled pair without snapshots has deltas %+v", none.Deltas)
	}
}
