package exec_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/sim"
)

// parityCase is one program both engines must run to the same
// outcome; wantErr is a substring of both engines' error, or "" for
// success.
type parityCase struct {
	name     string
	src      string
	canceled bool // run under an already-canceled context
	lim      exec.Limits
	wantErr  string
}

// parityCases cover the compiled engine's affine fast path (rank one
// and two), its loop over dimensions (rank three, several loop
// variables in one subscript), its general path (a scalar-driven
// subscript) and its fused arithmetic, which reads fast operands
// inline, with a fault in either operand.
var parityCases = []parityCase{
	{name: "scaled and reversed subscripts", src: `
program t
const N = 64
array a[2*N]
array b[N]
scalar s
loop L1 {
  for i = 0, N - 1 { read b[i] }
  for i = 0, N - 1 {
    a[2*i+1] = b[N-1-i] * 2
    a[2*i] = b[i] - a[2*i+1]
    s = s + a[0] + b[N-1] + a[i*2+1-1]
  }
  print s
  print a[2*N-1] + b[3]
}
`},
	{name: "constant subscripts", src: `
program t
const N = 8
array a[N]
array m[N, N]
loop L1 {
  a[3] = 1.5
  m[2, 5] = a[3] + 1
  for j = 0, N - 1 { m[0, j] = m[2, 5] + a[3] * j }
  print m[0, N-1] + m[2, 5]
}
`},
	{name: "rank three and multi-variable subscripts", src: `
program t
const N = 6
array u[N, N, N]
array v[2*N]
scalar s
loop L1 {
  for k = 0, N - 1 {
    for j = 0, N - 1 {
      for i = 0, N - 1 {
        u[i, j, k] = i + 2 * j - k
        v[i+j] = v[i+j] + u[i, j, k]
      }
    }
  }
  for k = 1, N - 2 {
    s = s + u[N-1-k, k+1, k-1] * v[k+k]
  }
  print s
}
`},
	{name: "scalar-driven subscript beside an affine one", src: `
program t
const N = 16
array a[N]
array m[N, N]
scalar r = 15
scalar s
loop L1 {
  for i = 0, N - 1 { read a[i] }
  for i = 0, N - 1 {
    m[i, r] = a[r] + a[i]
    s = s + m[i, r] * m[N-1-i, r]
    r = r - 1
  }
  print s
}
`},
	{name: "out of bounds in the second dimension late", wantErr: "nest L2: index 10 out of bounds [0,10) in m[", src: `
program t
const N = 10
array m[N, N]
scalar s
loop L1 {
  for j = 0, N - 1 {
    for i = 0, N - 1 {
      m[i, j] = i + j
      s = s + m[i, j]
    }
    print s
  }
}
loop L2 {
  for i = 0, N - 1 {
    print m[i, 2*i]
  }
}
`},
	{name: "both subscripts out of bounds", wantErr: "index 10 out of bounds [0,10) in w[", src: `
program t
const N = 10
array w[N, N+1]
loop L1 {
  for i = 0, N - 1 {
    w[i, 0] = i
    print w[i+5, i+6]
  }
}
`},
	{name: "affine bounds check before a general subscript's fault", wantErr: "index 4 out of bounds [0,4) in m[", src: `
program t
const N = 4
array m[N, N]
scalar z = 0.5
loop L1 {
  for i = 0, N - 1 { m[i, 0] = i }
  print m[N-1, 0]
  for i = 0, N - 1 { print m[i+N, z] }
}
`},
	{name: "fused arithmetic on fast operands", src: `
program t
const N = 12
array a[N]
array b[N]
array m[N, N]
array u[N, N, 2]
scalar s
scalar r = 3
loop L1 {
  for i = 0, N - 1 {
    read a[i]
    read b[i]
  }
  for j = 0, N - 1 {
    for i = 0, N - 1 {
      m[i, j] = m[i, j] + a[i] * b[j]
      u[i, j, 1] = a[i] - m[i, j] / b[j]
      s = s + a[N-1-i] * m[j, i] - u[i, j, 1] * b[i]
      s = s / b[j] + m[i, r] + (s - a[i])
    }
  }
  print s
  print m[N-1, N-1] * 2 + a[0]
}
`},
	{name: "fused Mul faults in its left operand", wantErr: "nest L1: index 8 out of bounds [0,8) in m[", src: `
program t
const N = 8
array a[N]
array m[N, N]
scalar s
loop L1 {
  for i = 0, N - 1 { read a[i] }
  for j = 0, N - 1 {
    for i = 0, N - 1 { s = s + m[i, j+3] * a[i] }
  }
  print s
}
`},
	{name: "fused Mul faults in its right operand", wantErr: "nest L1: index 8 out of bounds [0,8) in a[", src: `
program t
const N = 8
array a[N]
array m[N, N]
scalar s
loop L1 {
  for i = 0, N - 1 { read a[i] }
  for j = 0, N - 1 {
    for i = 0, N - 1 { s = s + m[i, j] * a[i+j] }
  }
  print s
}
`},
	{name: "fused Add faults in its left operand", wantErr: "nest L1: index 8 out of bounds [0,8) in a[", src: `
program t
const N = 8
array a[N]
array b[N]
loop L1 {
  for i = 0, N - 1 { read a[i] }
  for i = 0, N - 1 { b[i] = a[2*i] + b[i] }
  print b[0]
}
`},
	{name: "fused Add faults in its right operand", wantErr: "nest L1: index -1 out of bounds [0,8) in a[", src: `
program t
const N = 8
array a[N]
array b[N]
scalar s
loop L1 {
  for i = 0, N - 1 { read a[i] }
  for i = 0, N - 1 {
    b[i] = s + a[N-2-i]
    s = b[i] + a[i]
  }
  print s
}
`},
	{name: "step budget exhausted mid-nest", lim: exec.Limits{MaxSteps: 300}, wantErr: "nest L1: exec: step budget exhausted (limit 300 iterations)", src: `
program t
const N = 100
array a[N]
scalar s
loop L1 {
  for i = 0, N - 1 { a[i] = i }
  print a[N-1]
  for j = 0, N - 1 {
    for i = 0, N - 1 { s = s + a[i] }
  }
  print s
}
`},
	{name: "cancellation mid-nest", canceled: true, wantErr: "nest L1: exec: run canceled after 1024 iterations: context canceled", src: `
program t
const N = 4000
array a[N]
scalar s
loop L1 {
  print 1
  for i = 0, N - 1 { s = s + a[i] }
  print s
}
`},
}

// TestEngineParity runs each parity case on both engines against an
// Origin2000 hierarchy with per-site profiling and requires the same
// outcome (see checkParity). It lives in package exec_test because
// machine imports exec.
func TestEngineParity(t *testing.T) {
	for _, tc := range parityCases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			if tc.canceled {
				canceled, cancel := context.WithCancel(ctx)
				cancel()
				ctx = canceled
			}
			res, err := checkParity(t, ctx, lang.MustParse(tc.src), tc.lim)
			switch {
			case tc.wantErr != "":
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want both engines to fail with %q, got %v", tc.wantErr, err)
				}
			case err != nil:
				t.Fatal(err)
			case len(res.Prints) == 0:
				t.Fatal("the program printed nothing to compare")
			}
		})
	}
}

// fuzzMaxElems bounds the arrays of a program FuzzEngineParity runs,
// and fuzzLimits bounds each run, so a fuzzed infinite loop ends in
// exec.ErrStepBudget on both engines.
const fuzzMaxElems = 1 << 21

var fuzzLimits = exec.Limits{MaxSteps: 1 << 16}

// FuzzEngineParity runs every program that parses, and whose arrays
// are small enough, on both engines and requires the same outcome (see
// checkParity). It is seeded with the parity cases and the programs in
// testdata.
func FuzzEngineParity(f *testing.F) {
	for _, tc := range parityCases {
		f.Add(tc.src)
	}
	for _, file := range testdataSources(f) {
		f.Add(file[1])
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := lang.Parse(src)
		if err != nil || elems(p) > fuzzMaxElems {
			return
		}
		checkParity(t, context.Background(), p, fuzzLimits)
	})
}

// elems counts the elements of all of p's arrays, saturating past
// fuzzMaxElems.
func elems(p *ir.Program) int {
	total := 0
	for _, a := range p.Arrays {
		n := 1
		for _, d := range a.Dims {
			if d > fuzzMaxElems {
				return d
			}
			if n *= d; n > fuzzMaxElems {
				return n
			}
		}
		if total += n; total > fuzzMaxElems {
			return total
		}
	}
	return total
}

// checkParity runs p on both engines against an Origin2000 hierarchy
// with per-site profiling (see checkParityOn).
func checkParity(t *testing.T, ctx context.Context, p *ir.Program, lim exec.Limits) (*exec.Result, error) {
	t.Helper()
	return checkParityOn(t, ctx, p, lim, func() *sim.Hierarchy {
		h := machine.Origin2000().NewHierarchy()
		h.EnableProfiling()
		return h
	})
}

// checkParityOn runs p on both engines, each against its own hierarchy
// from newH, the compiled engine on RunCtx's path, and fails t unless
// the outcomes are the same (see sameOutcome): the same prints,
// scalars, flops and final arrays on success, the same error text on
// failure, and in both cases the same hierarchy counters and per-site
// attribution, so the engines issued the same accesses in the same
// order up to the end or the fault. It returns the interpreter's
// outcome.
func checkParityOn(t *testing.T, ctx context.Context, p *ir.Program, lim exec.Limits, newH func() *sim.Hierarchy) (*exec.Result, error) {
	t.Helper()
	ir.AssignSites(p)
	hi, hc := newH(), newH()
	ri, erri := exec.RunCtx(ctx, p, hi, lim)
	cp, err := exec.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rc, errc := exec.RunVector(ctx, cp, hc, 0, lim, true)
	sameOutcome(t, p, "interp", "compiled", ri, rc, erri, errc)
	sameHierarchy(t, hi, hc)
	return ri, erri
}

// sameHierarchy requires identical counters, channel traffic and
// per-site attribution at every level. Unprofiled hierarchies have no
// attribution, and compare equal on it.
func sameHierarchy(t *testing.T, hi, hc *sim.Hierarchy) {
	t.Helper()
	if hi.Flops != hc.Flops || hi.RegLoadBytes != hc.RegLoadBytes || hi.RegStoreBytes != hc.RegStoreBytes {
		t.Fatalf("register counters: interp %d/%d/%d, compiled %d/%d/%d",
			hi.Flops, hi.RegLoadBytes, hi.RegStoreBytes, hc.Flops, hc.RegLoadBytes, hc.RegStoreBytes)
	}
	if hi.MemReads != hc.MemReads || hi.MemWrites != hc.MemWrites {
		t.Fatalf("memory transfers: interp %d/%d, compiled %d/%d", hi.MemReads, hi.MemWrites, hc.MemReads, hc.MemWrites)
	}
	if !reflect.DeepEqual(hi.ChannelBytes(), hc.ChannelBytes()) {
		t.Fatalf("channel bytes: interp %v, compiled %v", hi.ChannelBytes(), hc.ChannelBytes())
	}
	pi, pc := hi.Profile(), hc.Profile()
	for lvl := 0; lvl < hi.Levels(); lvl++ {
		if hi.LevelStats(lvl) != hc.LevelStats(lvl) {
			t.Fatalf("level %d: interp %+v, compiled %+v", lvl, hi.LevelStats(lvl), hc.LevelStats(lvl))
		}
		if !reflect.DeepEqual(pi.SiteStats(lvl), pc.SiteStats(lvl)) {
			t.Fatalf("level %d per-site stats differ:\ninterp   %+v\ncompiled %+v", lvl, pi.SiteStats(lvl), pc.SiteStats(lvl))
		}
	}
	if !reflect.DeepEqual(pi.RegBytes(), pc.RegBytes()) {
		t.Fatalf("per-site register bytes: interp %v, compiled %v", pi.RegBytes(), pc.RegBytes())
	}
}
