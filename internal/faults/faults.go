// Package faults implements deterministic fault injection for the
// resilience layer. A Set is parsed from a compact spec string and
// names a handful of well-known injection points; production code asks
// "does this point fire now?" at the few places where a dependency can
// misbehave — a pass can panic, an analysis can stall, an execution can
// be canceled, the result cache can error, a worker can wedge — and
// the Set answers deterministically from a seeded counter sequence.
//
// Injection is opt-in twice over: a Set exists only when an operator
// passed `bwserved -chaos spec` (or a test enabled the per-request
// X-Chaos header), and every helper is nil-safe with an early-out, so
// a production binary without a spec pays one context lookup on the
// non-hot paths where points are placed, and nothing else.
//
// Spec grammar (semicolon-separated entries):
//
//	spec   := entry (";" entry)*
//	entry  := "seed=" uint64
//	        | point ":" policy ("," "delay=" duration)?
//	policy := "rate=" float in (0,1] | "nth=" positive int | "once"
//
// Example:
//
//	seed=7;pass.panic:nth=3;analysis.slow:rate=0.5,delay=50ms;worker.stall:once,delay=200ms
//
// Policies:
//
//   - nth=K fires on every Kth call of the point (K, 2K, 3K, ...);
//   - once fires on the first call only;
//   - rate=P fires on a deterministic pseudo-random P fraction of
//     calls, derived from the seed and the point's call index alone —
//     the same spec replays the same fire pattern on every run.
//
// delay= is meaningful for the stall-shaped points (analysis.slow,
// worker.stall) and defaults to DefaultDelay.
package faults

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The named injection points. Each is consulted by exactly one layer.
const (
	// PassPanic makes the next optimizer pass step panic inside the
	// pipeline's panic containment (internal/transform).
	PassPanic = "pass.panic"
	// AnalysisSlow delays a whole-program analysis compute (dependences,
	// fusion graph, liveness) by the rule's delay (internal/transform).
	AnalysisSlow = "analysis.slow"
	// ExecCancel aborts a program execution with exec.ErrCanceled at
	// run start (internal/exec).
	ExecCancel = "exec.cancel"
	// CacheError fails a result-cache operation: lookups miss, stores
	// are dropped (internal/cache hook; the service additionally
	// consults it around its cache calls).
	CacheError = "cache.error"
	// WorkerStall holds a just-acquired worker-pool slot idle for the
	// rule's delay before the request proceeds (internal/service).
	WorkerStall = "worker.stall"
)

// Points lists every valid injection point, sorted.
func Points() []string {
	return []string{AnalysisSlow, CacheError, ExecCancel, PassPanic, WorkerStall}
}

func validPoint(name string) bool {
	for _, p := range Points() {
		if p == name {
			return true
		}
	}
	return false
}

// DefaultDelay is the stall duration when a rule names none.
const DefaultDelay = 50 * time.Millisecond

type policyKind int

const (
	policyNth policyKind = iota
	policyOnce
	policyRate
)

// rule is one point's activation policy. calls and fired are atomics:
// points are consulted from many request goroutines at once.
type rule struct {
	point string
	kind  policyKind
	nth   uint64  // policyNth
	rate  float64 // policyRate
	delay time.Duration
	calls atomic.Uint64
	fired atomic.Uint64
}

// Set is a parsed chaos spec: per-point activation rules plus the
// shared seed. A nil *Set never fires; all methods are nil-safe.
type Set struct {
	seed  uint64
	rules map[string]*rule
	spec  string // canonical input, for String
}

// Parse builds a Set from a spec string (see the package comment for
// the grammar). An empty spec yields a nil Set, which never fires.
func Parse(spec string) (*Set, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	s := &Set{rules: map[string]*rule{}, spec: spec}
	for _, ent := range strings.Split(spec, ";") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		if v, ok := strings.CutPrefix(ent, "seed="); ok {
			seed, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", v, err)
			}
			s.seed = seed
			continue
		}
		point, policy, ok := strings.Cut(ent, ":")
		if !ok {
			return nil, fmt.Errorf("faults: entry %q wants point:policy", ent)
		}
		point = strings.TrimSpace(point)
		if !validPoint(point) {
			return nil, fmt.Errorf("faults: unknown point %q (want one of %s)",
				point, strings.Join(Points(), ", "))
		}
		if _, dup := s.rules[point]; dup {
			return nil, fmt.Errorf("faults: point %q configured twice", point)
		}
		r := &rule{point: point, delay: DefaultDelay}
		for i, part := range strings.Split(policy, ",") {
			part = strings.TrimSpace(part)
			k, v, _ := strings.Cut(part, "=")
			switch k {
			case "once":
				r.kind = policyOnce
			case "nth":
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil || n == 0 {
					return nil, fmt.Errorf("faults: %s: bad nth %q (want positive integer)", point, v)
				}
				r.kind, r.nth = policyNth, n
			case "rate":
				p, err := strconv.ParseFloat(v, 64)
				if err != nil || p <= 0 || p > 1 || math.IsNaN(p) {
					return nil, fmt.Errorf("faults: %s: bad rate %q (want 0 < rate <= 1)", point, v)
				}
				r.kind, r.rate = policyRate, p
			case "delay":
				d, err := time.ParseDuration(v)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("faults: %s: bad delay %q: %v", point, v, err)
				}
				r.delay = d
			default:
				return nil, fmt.Errorf("faults: %s: unknown policy element %q", point, part)
			}
			if i == 0 && k == "delay" {
				return nil, fmt.Errorf("faults: %s: policy (rate=, nth= or once) must come before delay=", point)
			}
		}
		s.rules[point] = r
	}
	if len(s.rules) == 0 {
		return nil, fmt.Errorf("faults: spec %q configures no injection points", spec)
	}
	return s, nil
}

// MustParse is Parse for tests and constants; it panics on error.
func MustParse(spec string) *Set {
	s, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// String returns the spec the Set was parsed from ("" for nil).
func (s *Set) String() string {
	if s == nil {
		return ""
	}
	return s.spec
}

// splitmix64 is the standard 64-bit mixer; it turns (seed, point hash,
// call index) into a uniform 64-bit value, so rate-policy decisions
// are a pure function of the spec and the call sequence.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Fire reports whether the named point fires on this call, advancing
// its call counter. A nil Set, or a point without a rule, never fires.
func (s *Set) Fire(point string) bool {
	if s == nil {
		return false
	}
	r, ok := s.rules[point]
	if !ok {
		return false
	}
	n := r.calls.Add(1)
	var fire bool
	switch r.kind {
	case policyOnce:
		fire = n == 1
	case policyNth:
		fire = n%r.nth == 0
	case policyRate:
		h := fnv.New64a()
		h.Write([]byte(r.point))
		fire = float64(splitmix64(s.seed^h.Sum64()^n))/float64(math.MaxUint64) < r.rate
	}
	if fire {
		r.fired.Add(1)
	}
	return fire
}

// Delay returns the configured stall duration of the point (its rule's
// delay, or DefaultDelay when the point has no rule).
func (s *Set) Delay(point string) time.Duration {
	if s == nil {
		return DefaultDelay
	}
	if r, ok := s.rules[point]; ok {
		return r.delay
	}
	return DefaultDelay
}

// Counts returns the number of times each configured point has fired.
// Points that never fired report zero; the map is empty for nil.
func (s *Set) Counts() map[string]uint64 {
	if s == nil {
		return nil
	}
	out := make(map[string]uint64, len(s.rules))
	for name, r := range s.rules {
		out[name] = r.fired.Load()
	}
	return out
}

// Rules lists the configured points, sorted (for logs and /healthz).
func (s *Set) Rules() []string {
	if s == nil {
		return nil
	}
	out := make([]string, 0, len(s.rules))
	for name := range s.rules {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ctxKey indexes the active Set in a context.
type ctxKey struct{}

// With returns ctx carrying the Set. A nil Set returns ctx unchanged.
func With(ctx context.Context, s *Set) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// From returns the Set carried by ctx, or nil.
func From(ctx context.Context) *Set {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Set)
	return s
}

// Should reports whether the point fires for the Set carried by ctx.
// This is the one-line guard production code uses; without a Set in
// ctx it is a context lookup and a nil check.
func Should(ctx context.Context, point string) bool {
	return From(ctx).Fire(point)
}

// Error returns an injected error when the point fires, nil otherwise.
func Error(ctx context.Context, point string) error {
	if Should(ctx, point) {
		return fmt.Errorf("faults: injected %s", point)
	}
	return nil
}

// PanicIf panics with an identifiable value when the point fires. The
// transform pipeline places it inside its panic containment, so an
// injected pass panic exercises the same rollback path a real one
// would.
func PanicIf(ctx context.Context, point string) {
	if Should(ctx, point) {
		panic(fmt.Sprintf("faults: injected %s", point))
	}
}

// Sleep stalls for the point's configured delay when it fires,
// returning early if ctx is done first (an injected stall must not
// outlive the request's deadline by more than its poll).
func Sleep(ctx context.Context, point string) {
	s := From(ctx)
	if !s.Fire(point) {
		return
	}
	t := time.NewTimer(s.Delay(point))
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
