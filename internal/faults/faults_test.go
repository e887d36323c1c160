package faults

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseErrors(t *testing.T) {
	cases := []string{
		"pass.panic",                      // no policy
		"nope.point:once",                 // unknown point
		"pass.panic:rate=0",               // rate out of range
		"pass.panic:rate=1.5",             // rate out of range
		"pass.panic:nth=0",                // nth must be positive
		"pass.panic:wat=1",                // unknown policy element
		"pass.panic:delay=10ms",           // delay without a policy
		"seed=abc;pass.panic:once",        // bad seed
		"pass.panic:once;pass.panic:once", // duplicate point
		"seed=1",                          // no points at all
		"analysis.slow:once,delay=-1s",    // negative delay
	}
	for _, spec := range cases {
		if s, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) = %v, want error", spec, s)
		}
	}
}

func TestParseEmptyIsNil(t *testing.T) {
	for _, spec := range []string{"", "   "} {
		s, err := Parse(spec)
		if err != nil || s != nil {
			t.Fatalf("Parse(%q) = %v, %v; want nil, nil", spec, s, err)
		}
	}
}

func TestNilSetIsInert(t *testing.T) {
	var s *Set
	if s.Fire(PassPanic) {
		t.Fatal("nil set fired")
	}
	if s.String() != "" || s.Counts() != nil || s.Rules() != nil {
		t.Fatal("nil set not inert")
	}
	ctx := With(context.Background(), nil)
	if Should(ctx, PassPanic) || Error(ctx, CacheError) != nil {
		t.Fatal("background context fired")
	}
	PanicIf(ctx, PassPanic) // must not panic
	Sleep(ctx, WorkerStall) // must return immediately
}

func TestNthPolicy(t *testing.T) {
	s := MustParse("pass.panic:nth=3")
	var fired []int
	for i := 1; i <= 9; i++ {
		if s.Fire(PassPanic) {
			fired = append(fired, i)
		}
	}
	if len(fired) != 3 || fired[0] != 3 || fired[1] != 6 || fired[2] != 9 {
		t.Fatalf("nth=3 fired on calls %v, want [3 6 9]", fired)
	}
	if got := s.Counts()[PassPanic]; got != 3 {
		t.Fatalf("fired count = %d, want 3", got)
	}
}

func TestOncePolicy(t *testing.T) {
	s := MustParse("exec.cancel:once")
	if !s.Fire(ExecCancel) {
		t.Fatal("once did not fire on the first call")
	}
	for i := 0; i < 10; i++ {
		if s.Fire(ExecCancel) {
			t.Fatal("once fired twice")
		}
	}
}

// TestRateDeterminism: the same seed replays the identical fire
// pattern; a different seed gives a different one; the empirical rate
// is in the right ballpark.
func TestRateDeterminism(t *testing.T) {
	pattern := func(seed string) []bool {
		s := MustParse(seed + "analysis.slow:rate=0.3")
		out := make([]bool, 200)
		for i := range out {
			out[i] = s.Fire(AnalysisSlow)
		}
		return out
	}
	a, b := pattern("seed=42;"), pattern("seed=42;")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := pattern("seed=43;")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical patterns")
	}
	n := 0
	for _, f := range a {
		if f {
			n++
		}
	}
	if n < 30 || n > 90 { // 0.3 ± generous tolerance over 200 calls
		t.Fatalf("rate=0.3 fired %d/200 times", n)
	}
}

func TestUnconfiguredPointNeverFires(t *testing.T) {
	s := MustParse("pass.panic:once")
	for i := 0; i < 5; i++ {
		if s.Fire(CacheError) {
			t.Fatal("unconfigured point fired")
		}
	}
}

func TestContextCarriage(t *testing.T) {
	s := MustParse("cache.error:once")
	ctx := With(context.Background(), s)
	if From(ctx) != s {
		t.Fatal("From did not return the installed set")
	}
	if err := Error(ctx, CacheError); err == nil || !strings.Contains(err.Error(), "cache.error") {
		t.Fatalf("Error = %v, want injected cache.error", err)
	}
	if err := Error(ctx, CacheError); err != nil {
		t.Fatalf("once fired twice: %v", err)
	}
}

func TestPanicIf(t *testing.T) {
	ctx := With(context.Background(), MustParse("pass.panic:once"))
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "pass.panic") {
			t.Fatalf("recover() = %v, want injected pass.panic", r)
		}
	}()
	PanicIf(ctx, PassPanic)
	t.Fatal("PanicIf did not panic")
}

func TestSleepHonorsDelayAndCancel(t *testing.T) {
	ctx := With(context.Background(), MustParse("worker.stall:once,delay=30ms"))
	begin := time.Now()
	Sleep(ctx, WorkerStall)
	if d := time.Since(begin); d < 25*time.Millisecond {
		t.Fatalf("stall slept only %v, want ~30ms", d)
	}

	// A canceled context cuts a long stall short.
	s := MustParse("worker.stall:once,delay=10s")
	cctx, cancel := context.WithCancel(With(context.Background(), s))
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	begin = time.Now()
	Sleep(cctx, WorkerStall)
	if d := time.Since(begin); d > 2*time.Second {
		t.Fatalf("canceled stall took %v", d)
	}
}

// TestConcurrentFire exercises the counters from many goroutines; with
// -race this proves the Set is safe to share across requests. The nth
// policy must fire exactly once per nth call in aggregate.
func TestConcurrentFire(t *testing.T) {
	s := MustParse("pass.panic:nth=10;analysis.slow:rate=0.5;cache.error:once")
	var wg sync.WaitGroup
	var fired atomic64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				if s.Fire(PassPanic) {
					fired.add(1)
				}
				s.Fire(AnalysisSlow)
				s.Fire(CacheError)
			}
		}()
	}
	wg.Wait()
	if got := fired.load(); got != 200 {
		t.Fatalf("nth=10 fired %d/2000 times, want exactly 200", got)
	}
	if got := s.Counts()[CacheError]; got != 1 {
		t.Fatalf("once fired %d times under concurrency", got)
	}
}

type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }
