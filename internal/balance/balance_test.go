package balance

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/machine"
)

// measureOn measures p on one machine.
func measureOn(p *ir.Program, spec machine.Spec, opts Options) (*Report, error) {
	return primary(Measure(context.Background(), p, []machine.Spec{spec}, opts))
}

const streamy = `
program streamy
const N = 300000
array a[N]
array b[N]
array c[N]
loop L1 {
  for i = 0, N-1 { a[i] = b[i] + 0.5 * c[i] }
}
`

func TestMeasureStreamKernel(t *testing.T) {
	p := lang.MustParse(streamy)
	r, err := measureOn(p, machine.Origin2000(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Triad-like kernel: 2 flops, 3 arrays streamed; memory balance is
	// (2 reads + 1 write-allocate fetch + 1 writeback) * 8B / 2 flops
	// = 16 B/flop.
	if math.Abs(r.ProgramBalance[2]-16) > 1 {
		t.Fatalf("memory balance = %.2f, want ~16", r.ProgramBalance[2])
	}
	// Demand far exceeds the 0.8 B/flop supply: ratio ~20.
	if r.Ratios[2] < 10 {
		t.Fatalf("memory ratio = %.2f", r.Ratios[2])
	}
	if r.Bottleneck != "Mem-L2" {
		t.Fatalf("bottleneck = %s", r.Bottleneck)
	}
	if r.CPUUtilizationBound > 0.1 {
		t.Fatalf("utilization bound = %v", r.CPUUtilizationBound)
	}
	// Effective bandwidth saturates the memory channel.
	if bw := r.EffectiveBW; math.Abs(bw-machine.Origin2000().MemoryBandwidth()) > 0.05*machine.Origin2000().MemoryBandwidth() {
		t.Fatalf("effective bandwidth %.0f MB/s not saturated", bw/machine.MB)
	}
}

func TestMeasureComputeBoundKernel(t *testing.T) {
	// Tiny working set, heavy flops: CPU-bound, utilization bound 1.
	p := lang.MustParse(`
program hotloop
const N = 64
array a[N]
scalar s
loop L1 {
  for r = 0, 500 {
    for i = 0, N-1 {
      s = s + a[i] * a[i] + a[i] * 0.5 + s * 0.25
    }
  }
}
`)
	r, err := measureOn(p, machine.Origin2000(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Bottleneck != "L1-Reg" && r.Bottleneck != "CPU" {
		t.Fatalf("bottleneck = %s (ratios %v)", r.Bottleneck, r.Ratios)
	}
	// Memory channel must be quiet: the working set stays in cache.
	if r.Ratios[2] > 0.2 {
		t.Fatalf("memory ratio = %v for cached kernel", r.Ratios[2])
	}
}

func TestWriteLoopTwiceTheTimeOfReadLoop(t *testing.T) {
	// Section 2.1: same flops, same reads — the writing loop takes ~2x
	// because of writebacks.
	writeLoop := lang.MustParse(`
program w
const N = 500000
array a[N]
loop L1 { for i = 0, N-1 { a[i] = a[i] + 0.4 } }
`)
	readLoop := lang.MustParse(`
program r
const N = 500000
array a[N]
scalar sum
loop L1 { for i = 0, N-1 { sum = sum + a[i] } }
`)
	for _, spec := range []machine.Spec{machine.Origin2000(), machine.Exemplar()} {
		rw, err := measureOn(writeLoop, spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := measureOn(readLoop, spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ratio := rw.Time.Total / rr.Time.Total
		if math.Abs(ratio-2) > 0.1 {
			t.Fatalf("%s: write/read time ratio = %.2f, want ~2", spec.Name, ratio)
		}
	}
}

func TestSpeedup(t *testing.T) {
	a := &Report{Time: machine.Time{Total: 2}}
	b := &Report{Time: machine.Time{Total: 1}}
	if Speedup(a, b) != 2 {
		t.Fatal("speedup wrong")
	}
	if Speedup(a, &Report{}) != 0 {
		t.Fatal("zero time must not divide")
	}
}

func TestReportString(t *testing.T) {
	p := lang.MustParse(streamy)
	r, err := measureOn(p, machine.Origin2000(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{"streamy", "Origin2000", "Mem-L2", "bottleneck", "MB/s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestMeasureValidatesSpec(t *testing.T) {
	p := lang.MustParse(streamy)
	bad := machine.Origin2000()
	bad.FlopRate = 0
	if _, err := measureOn(p, bad, Options{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestZeroFlopProgram(t *testing.T) {
	// A pure copy loop has zero flops; balance is undefined but must
	// not divide by zero, and time is still bandwidth-bound.
	p := lang.MustParse(`
program copy
const N = 10000
array a[N]
array b[N]
loop L1 { for i = 0, N-1 { a[i] = b[i] } }
`)
	r, err := measureOn(p, machine.Origin2000(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Flops != 0 {
		t.Fatalf("flops = %d", r.Flops)
	}
	if r.Time.Total <= 0 {
		t.Fatal("time must be positive")
	}
	if math.IsNaN(r.MaxRatio) || math.IsInf(r.MaxRatio, 0) {
		t.Fatalf("ratio = %v", r.MaxRatio)
	}
}
