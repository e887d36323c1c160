package exec_test

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/sim"
)

// TestEngineParity runs each program on both engines against an
// Origin2000 hierarchy with per-site profiling and requires the same
// outcome: the same prints, scalars and flops on success, the same
// error text on failure, and in both cases the same hierarchy counters
// and per-site attribution, so the engines issued the same accesses in
// the same order up to the end or the fault. The programs cover the
// compiled engine's affine fast path (rank one and two), its loop over
// dimensions (rank three, several loop variables in one subscript) and
// its general path (a scalar-driven subscript). It lives in package
// exec_test because machine imports exec.
func TestEngineParity(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name    string
		src     string
		ctx     context.Context
		lim     exec.Limits
		wantErr string // a substring of both engines' error; "" for success
	}{
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
		{name: "cancellation mid-nest", ctx: canceled, wantErr: "nest L1: exec: run canceled after 1024 iterations: context canceled", src: `
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
	spec := machine.Origin2000()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			p := lang.MustParse(tc.src)
			ir.AssignSites(p)
			hi, hc := spec.NewHierarchy(), spec.NewHierarchy()
			hi.EnableProfiling()
			hc.EnableProfiling()
			ri, erri := exec.RunCtx(ctx, p, hi, tc.lim)
			cp, err := exec.Compile(p)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			rc, errc := cp.RunCtx(ctx, hc, tc.lim)
			switch {
			case tc.wantErr != "":
				if erri == nil || errc == nil || !strings.Contains(erri.Error(), tc.wantErr) {
					t.Fatalf("want both engines to fail with %q: interp %v, compiled %v", tc.wantErr, erri, errc)
				}
				if erri.Error() != errc.Error() {
					t.Fatalf("error text diverged:\ninterp:   %v\ncompiled: %v", erri, errc)
				}
			case erri != nil || errc != nil:
				t.Fatalf("interp %v, compiled %v", erri, errc)
			case !sameValues(ri.Prints, rc.Prints) || len(ri.Prints) == 0:
				t.Fatalf("prints: interp %v, compiled %v", ri.Prints, rc.Prints)
			case !reflect.DeepEqual(ri.Scalars, rc.Scalars) || ri.Flops != rc.Flops:
				t.Fatalf("scalars/flops: interp %v %d, compiled %v %d", ri.Scalars, ri.Flops, rc.Scalars, rc.Flops)
			}
			sameHierarchy(t, hi, hc)
		})
	}
}

func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// sameHierarchy requires identical counters, channel traffic and
// per-site attribution at every level.
func sameHierarchy(t *testing.T, hi, hc *sim.Hierarchy) {
	t.Helper()
	if hi.Flops != hc.Flops || hi.RegLoadBytes != hc.RegLoadBytes || hi.RegStoreBytes != hc.RegStoreBytes {
		t.Fatalf("register counters: interp %d/%d/%d, compiled %d/%d/%d",
			hi.Flops, hi.RegLoadBytes, hi.RegStoreBytes, hc.Flops, hc.RegLoadBytes, hc.RegStoreBytes)
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
