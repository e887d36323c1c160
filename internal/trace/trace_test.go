package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	s := tr.Start(nil, "x", Int("a", 1))
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	s.End(String("k", "v")) // must not panic
	s.SetAttrs(Bool("b", true))
	if got := tr.Len(); got != 0 {
		t.Fatalf("nil tracer Len = %d", got)
	}
	if tree := tr.Tree(); tree != nil {
		t.Fatalf("nil tracer Tree = %v", tree)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil tracer WriteChromeTrace: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace not valid JSON: %v", err)
	}
}

func TestUntracedContextFastPath(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "x")
	if s != nil || ctx2 != ctx {
		t.Fatal("untraced context grew a span")
	}
	if FromContext(ctx) != nil {
		t.Fatal("untraced context has a current span")
	}
}

func TestSpanTreeNesting(t *testing.T) {
	tr := New()
	root := tr.Start(nil, "root", String("who", "test"))
	ctx := NewContext(context.Background(), root)

	ctx2, child := StartSpan(ctx, "child")
	_, grand := StartSpan(ctx2, "grandchild", Int("n", 7))
	grand.End()
	child.End(Int("steps", 3))
	root.End()

	tree := tr.Tree()
	if len(tree) != 1 {
		t.Fatalf("want 1 root, got %d", len(tree))
	}
	r := tree[0]
	if r.Name != "root" || len(r.Children) != 1 {
		t.Fatalf("bad root: %+v", r)
	}
	c := r.Children[0]
	if c.Name != "child" || c.Attrs["steps"] != any(int64(3)) || len(c.Children) != 1 {
		t.Fatalf("bad child: %+v", c)
	}
	g := c.Children[0]
	if g.Name != "grandchild" || g.Attrs["n"] != any(int64(7)) {
		t.Fatalf("bad grandchild: %+v", g)
	}
	// Child ranges are contained in the parent's.
	if g.StartUS < c.StartUS || g.StartUS+g.DurUS > c.StartUS+c.DurUS+1e-6 {
		t.Fatalf("grandchild [%g,%g] escapes child [%g,%g]",
			g.StartUS, g.StartUS+g.DurUS, c.StartUS, c.StartUS+c.DurUS)
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := New()
	root := tr.Start(nil, "pipeline")
	time.Sleep(time.Millisecond)
	s := tr.Start(root, "pass.fuse", String("verdict", "committed"))
	s.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, buf.String())
	}
	var havePipeline, haveFuse bool
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Name == "pipeline":
			havePipeline = true
			if ev.Dur <= 0 {
				t.Fatalf("pipeline span has dur %g", ev.Dur)
			}
		case ev.Ph == "X" && ev.Name == "pass.fuse":
			haveFuse = true
			if ev.Args["verdict"] != "committed" {
				t.Fatalf("fuse args = %v", ev.Args)
			}
			if ev.TID != 1 {
				t.Fatalf("child not on root lane: tid %d", ev.TID)
			}
		}
	}
	if !havePipeline || !haveFuse {
		t.Fatalf("missing spans: pipeline=%v fuse=%v", havePipeline, haveFuse)
	}
}

func TestUnfinishedSpanExports(t *testing.T) {
	tr := New()
	tr.Start(nil, "hung") // never ended
	tree := tr.Tree()
	if len(tree) != 1 || tree[0].Attrs["unfinished"] != any(true) {
		t.Fatalf("unfinished span not flagged: %+v", tree)
	}
}

func TestOverlappingRootsGetDistinctLanes(t *testing.T) {
	tr := New()
	a := tr.Start(nil, "a")
	b := tr.Start(nil, "b") // overlaps a
	time.Sleep(100 * time.Microsecond)
	a.End()
	b.End()
	recs := tr.snapshot()
	l := lanes(recs)
	if l[recs[0].id] == l[recs[1].id] {
		t.Fatalf("overlapping roots share lane %d", l[recs[0].id])
	}
}

// TestConcurrentSpans exercises the tracer from many goroutines under
// -race: every worker starts, attributes and ends its own span chain.
func TestConcurrentSpans(t *testing.T) {
	tr := New()
	root := tr.Start(nil, "root")
	var wg sync.WaitGroup
	const workers = 16
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := tr.Start(root, "work", Int("worker", int64(i)))
				s.SetAttrs(Int("j", int64(j)))
				s.End()
			}
		}(i)
	}
	wg.Wait()
	root.End()
	if got, want := tr.Len(), 1+workers*50; got != want {
		t.Fatalf("span count = %d, want %d", got, want)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("concurrent trace not valid JSON")
	}
}
