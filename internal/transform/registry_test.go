package transform

import (
	"strings"
	"testing"
)

func TestParsePipelineAliases(t *testing.T) {
	pl, err := ParsePipeline("storeelim, shrink ,peel:L0:i")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"store-elim", "reduce-storage", "peel-first"}
	if pl.Len() != len(want) {
		t.Fatalf("got %d steps, want %d", pl.Len(), len(want))
	}
	for i, st := range pl.steps {
		if st.info.Name != want[i] {
			t.Errorf("step %d resolved to %q, want %q", i, st.info.Name, want[i])
		}
	}
	// The spec element keeps the user's spelling for diagnostics.
	if pl.steps[2].spec != "peel:L0:i" {
		t.Errorf("step 2 spec = %q, want the original spelling", pl.steps[2].spec)
	}
}

func TestParsePipelineExpandsDefault(t *testing.T) {
	pl, err := ParsePipeline("simplify,pipeline")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"simplify", "fuse", "reduce-storage", "store-elim"}
	if pl.Len() != len(want) {
		t.Fatalf("got %d steps, want %d", pl.Len(), len(want))
	}
	for i, st := range pl.steps {
		if st.info.Name != want[i] {
			t.Errorf("step %d = %q, want %q", i, st.info.Name, want[i])
		}
	}
}

func TestParsePipelineSkipsEmptyElements(t *testing.T) {
	pl, err := ParsePipeline(" , fuse, ,")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Len() != 1 || pl.steps[0].info.Name != "fuse" {
		t.Fatalf("got %d steps (%+v), want just fuse", pl.Len(), pl.steps)
	}
	empty, err := ParsePipeline("")
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty spec: %d steps, err %v", empty.Len(), err)
	}
}

func TestParsePipelineErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"warp", "unknown pass"},
		{"pipeline:x", "pipeline takes no arguments"},
		{"fuse:now", "takes no arguments"},
		{"interchange:n1", "interchange:<nest>:<var>"},
		{"unrolljam:n1:i:two", "unrolljam factor"},
	}
	for _, c := range cases {
		_, err := ParsePipeline(c.spec)
		if err == nil {
			t.Errorf("spec %q: expected error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %q: error %q does not mention %q", c.spec, err, c.want)
		}
	}
	// The unknown-pass diagnostic lists what is registered.
	_, err := ParsePipeline("warp")
	if !strings.Contains(err.Error(), "store-elim") {
		t.Errorf("unknown-pass error does not list registered passes: %v", err)
	}
}

func TestOptionsPipelineSpecRoundTrip(t *testing.T) {
	if got := All().PipelineSpec(); got != DefaultPipelineSpec {
		t.Errorf("All().PipelineSpec() = %q, want %q", got, DefaultPipelineSpec)
	}
	if got := (Options{Fuse: true}).PipelineSpec(); got != "fuse" {
		t.Errorf("fusion-only PipelineSpec() = %q", got)
	}
	if got := (Options{}).PipelineSpec(); got != "" {
		t.Errorf("zero Options PipelineSpec() = %q, want empty", got)
	}
	// The derived spec must parse back to the same pass sequence.
	pl, err := ParsePipeline(All().PipelineSpec())
	if err != nil {
		t.Fatal(err)
	}
	def, err := ParsePipeline(DefaultPipelineSpec)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Len() != def.Len() {
		t.Fatalf("round trip lost passes: %d vs %d", pl.Len(), def.Len())
	}
}

func TestPassesListing(t *testing.T) {
	ps := Passes()
	if len(ps) == 0 {
		t.Fatal("no registered passes")
	}
	seen := map[string]bool{}
	for i, p := range ps {
		if i > 0 && ps[i-1].Name >= p.Name {
			t.Errorf("listing not sorted: %q before %q", ps[i-1].Name, p.Name)
		}
		seen[p.Name] = true
		if p.Usage == "" || p.Help == "" {
			t.Errorf("pass %q missing usage or help", p.Name)
		}
	}
	for _, name := range strings.Split(DefaultPipelineSpec, ",") {
		if !seen[name] {
			t.Errorf("default pipeline pass %q not registered", name)
		}
	}
	if _, ok := LookupPass("storeelim"); !ok {
		t.Error("alias storeelim did not resolve")
	}
	if _, ok := LookupPass("no-such"); ok {
		t.Error("unknown name resolved")
	}
}

// FuzzParsePipeline feeds arbitrary text to ParsePipeline, the parser
// bwserved runs on the untrusted "pipeline" request field. It must
// never panic, every error must carry the package's "transform:"
// prefix, and an accepted spec must re-parse from its Spec to the same
// steps. The steps' own specs, joined, form a canonical spelling that
// is a parse fixpoint.
func FuzzParsePipeline(f *testing.F) {
	for _, spec := range []string{
		"", ",,", " ", DefaultPipelineSpec, "pipeline", "pipeline:x", "pipeline, fuse",
		"storeelim, shrink ,peel:L0:i", "peel-last:L1:j", "interchange:MM:j", "distribute:L1",
		"unrolljam:MM:j:2", "unrolljam:MM:j:x", "scalarize:Update_Sum", "regroup:a+b+c",
		"regroup:", "simplify:1", "fuse:", "bogus", "fuse,,store-elim", ":", "::::",
	} {
		f.Add(spec)
	}
	steps := func(pl *Pipeline) []string {
		out := make([]string, pl.Len())
		for i, st := range pl.steps {
			out[i] = st.info.Name + " " + st.spec
		}
		return out
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pl, err := ParsePipeline(spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "transform:") {
				t.Fatalf("ParsePipeline(%q) error lacks the transform: prefix: %v", spec, err)
			}
			return
		}
		want := steps(pl)
		again, err := ParsePipeline(pl.Spec)
		if err != nil {
			t.Fatalf("accepted spec %q does not re-parse: %v", pl.Spec, err)
		}
		if got := steps(again); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("re-parse of %q changed the steps:\n%q\n%q", pl.Spec, want, got)
		}
		canon, err := ParsePipeline(pl.Canonical())
		if err != nil {
			t.Fatalf("canonical spelling %q of %q does not parse: %v", pl.Canonical(), spec, err)
		}
		if got := steps(canon); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("canonical spelling of %q changed the steps:\n%q\n%q", spec, want, got)
		}
	})
}
