// Package trace is the pipeline's span tracer: lightweight start/end
// spans with parent links, monotonic timestamps and typed attributes,
// threaded through the optimizer (transform), the analysis cache
// (analysis.Manager), fusion, verification and execution. It exists so
// the toolchain can attribute its own cost the way the balance model
// attributes a program's — "where inside this optimize run did the
// time go?" — without a debugger.
//
// Design constraints:
//
//   - near-zero cost when disabled: every entry point is nil-safe, so
//     an untraced call path pays one pointer (or context-value) check
//     and nothing else — no allocation, no lock, no clock read;
//   - goroutine-safe: spans may start and end on any goroutine; the
//     tracer serializes bookkeeping behind one mutex, acceptable at
//     span granularity (passes, analyses, runs — never inner loops);
//   - no external dependencies: export formats (chrome.go) are simple
//     enough to emit directly.
//
// A Tracer is propagated through context.Context, matching how
// cancellation already flows through the pipeline. Code that holds no
// context (the analysis manager's compute hooks) parents spans through
// an explicitly installed context instead.
package trace

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Attr is one typed key/value attribute on a span. Construct with
// String, Int, Float or Bool; the tagged union avoids interface boxing
// on the common integer path.
type Attr struct {
	Key string
	val Value
}

// Value is the tagged union of attribute values.
type Value struct {
	kind byte // 's', 'i', 'b'
	s    string
	i    int64
	b    bool
}

// String builds a string attribute.
func String(key, v string) Attr { return Attr{Key: key, val: Value{kind: 's', s: v}} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, val: Value{kind: 'i', i: v}} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, val: Value{kind: 'b', b: v}} }

// Any unboxes the value for JSON encoding.
func (v Value) Any() any {
	switch v.kind {
	case 's':
		return v.s
	case 'i':
		return v.i
	case 'b':
		return v.b
	default:
		return nil
	}
}

// Value returns the attribute's value (for tests and exporters).
func (a Attr) Value() any { return a.val.Any() }

func (v Value) String() string { return fmt.Sprint(v.Any()) }

// Span is one timed region of work. The zero of *Span (nil) is a valid
// disabled span: End and SetAttrs on it are no-ops, so call sites need
// no tracing-enabled guards.
type Span struct {
	tracer *Tracer
	id     int
	parent int // 0 = root
	name   string
	start  time.Duration // offset from tracer epoch
	end    time.Duration // 0 while running
	done   bool
	attrs  []Attr
}

// Tracer collects spans. The zero of *Tracer (nil) is a valid disabled
// tracer: Start on it returns a nil span. Create an enabled tracer
// with New.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*Span
}

// New returns an enabled tracer whose span timestamps are monotonic
// offsets from now.
func New() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Enabled reports whether the tracer records spans.
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of spans started so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Start begins a span under parent (nil parent = a root span). On a
// nil tracer it returns nil, which every Span method accepts.
func (t *Tracer) Start(parent *Span, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tracer: t, name: name, start: time.Since(t.epoch)}
	if parent != nil {
		s.parent = parent.id
	}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	t.mu.Lock()
	s.id = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Instant records a zero-duration marker span (cache invalidations,
// verdict points).
func (t *Tracer) Instant(parent *Span, name string, attrs ...Attr) {
	s := t.Start(parent, name, attrs...)
	s.End()
}

// End closes the span, appending any final attributes. Ending a span
// twice keeps the first end time (later attrs still append). Nil-safe.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	if !s.done {
		s.done = true
		s.end = time.Since(s.tracer.epoch)
	}
	s.tracer.mu.Unlock()
}

// SetAttrs appends attributes to a running span. Nil-safe.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil || len(attrs) == 0 {
		return
	}
	s.tracer.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.tracer.mu.Unlock()
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// record is an immutable snapshot of one span, taken under the tracer
// lock so exporters never race with in-flight spans.
type record struct {
	id, parent int
	name       string
	start, end time.Duration
	attrs      []Attr
}

// snapshot copies the span list. A still-running span exports with
// end == start and an "unfinished" attribute, so a trace written after
// a panic or cancellation is still well-formed.
func (t *Tracer) snapshot() []record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]record, len(t.spans))
	for i, s := range t.spans {
		r := record{id: s.id, parent: s.parent, name: s.name, start: s.start, end: s.end}
		r.attrs = append(r.attrs, s.attrs...)
		if !s.done {
			r.end = r.start
			r.attrs = append(r.attrs, Bool("unfinished", true))
		}
		out[i] = r
	}
	return out
}

// ctxKey indexes the current span (and through it the tracer) in a
// context.
type ctxKey struct{}

// NewContext returns a context carrying span as the current trace
// position. Spans started from the returned context become its
// children.
func NewContext(ctx context.Context, span *Span) context.Context {
	if span == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, span)
}

// FromContext returns the current span, or nil when ctx is untraced.
// This single context-value lookup is the entire cost of a disabled
// trace point.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan starts a child of ctx's current span and returns a context
// positioned at the child. On an untraced context it returns
// (ctx, nil) — the fast path.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tracer.Start(parent, name, attrs...)
	return context.WithValue(ctx, ctxKey{}, s), s
}

// InstantCtx records a zero-duration marker under ctx's current span
// (cache hits, invalidations). A no-op on an untraced context.
func InstantCtx(ctx context.Context, name string, attrs ...Attr) {
	parent := FromContext(ctx)
	if parent == nil {
		return
	}
	parent.tracer.Instant(parent, name, attrs...)
}
