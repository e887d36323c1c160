package faults

import (
	"strings"
	"testing"
)

// FuzzFaultsSpec feeds arbitrary text to Parse, the parser bwserved
// runs on the untrusted X-Chaos header. It must never panic, every
// error must carry the package's "faults:" prefix, and an accepted
// Set's String must be a parse fixpoint: it parses back to a Set with
// the same seed and the same rule for every point.
func FuzzFaultsSpec(f *testing.F) {
	for _, spec := range []string{
		"", " ; ", "seed=7", "seed=x;exec.cancel:once", "exec.cancel:once",
		"seed=7;pass.panic:nth=3;analysis.slow:rate=0.5,delay=50ms;worker.stall:once,delay=200ms",
		"cache.error:rate=1", "cache.error:rate=0", "cache.error:rate=NaN", "pass.panic:nth=0",
		"pass.panic:delay=1s", "pass.panic:once,delay=-1s", "pass.panic:once;pass.panic:nth=2",
		"bogus:once", "pass.panic", "pass.panic:once,zap", "worker.stall:nth=18446744073709551615",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "faults:") {
				t.Fatalf("Parse(%q) error lacks the faults: prefix: %v", spec, err)
			}
			return
		}
		text := s.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("String %q of an accepted spec does not re-parse: %v", text, err)
		}
		if again.String() != text {
			t.Fatalf("String is not a fixpoint: %q, then %q", text, again.String())
		}
		if (s == nil) != (again == nil) {
			t.Fatalf("re-parse of %q changed nil-ness: %v vs %v", text, s, again)
		}
		if s == nil {
			return
		}
		if s.seed != again.seed || len(s.rules) != len(again.rules) {
			t.Fatalf("re-parse of %q changed the seed or rule count", text)
		}
		for point, r := range s.rules {
			q := again.rules[point]
			if q == nil || q.kind != r.kind || q.nth != r.nth || q.rate != r.rate || q.delay != r.delay {
				t.Fatalf("re-parse of %q changed the rule for %s", text, point)
			}
		}
	})
}
