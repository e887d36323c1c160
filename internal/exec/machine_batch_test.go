package exec_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/sim"
)

// machineCase is a program TestMachineBatchParity runs, built afresh
// for each machine.
type machineCase struct {
	name     string
	prog     func() *ir.Program
	canceled bool
	lim      exec.Limits
}

// machineCases are the parity and batch cases, the programs in
// testdata under the fuzz step budget, and the paper's kernels at small
// sizes, run to the end.
func machineCases(t *testing.T) []machineCase {
	var cases []machineCase
	for _, tc := range parityCases {
		cases = append(cases, machineCase{"parity/" + tc.name, func() *ir.Program { return lang.MustParse(tc.src) }, tc.canceled, tc.lim})
	}
	for _, tc := range batchCases {
		cases = append(cases, machineCase{"batch/" + tc.name, func() *ir.Program { return lang.MustParse(tc.src) }, tc.canceled, tc.lim})
	}
	for _, file := range testdataSources(t) {
		cases = append(cases, machineCase{"testdata/" + file[0], func() *ir.Program { return lang.MustParse(file[1]) }, false, fuzzLimits})
	}
	for _, k := range []struct {
		name string
		prog func() *ir.Program
	}{
		{"fig7", func() *ir.Program { return kernels.Fig7Original(300) }},
		{"conv", func() *ir.Program { return kernels.Convolution(300) }},
		{"dmxpy", func() *ir.Program { return kernels.Dmxpy(24) }},
		{"matmul-jki", func() *ir.Program { return kernels.MatmulJKI(16) }},
		{"sp", func() *ir.Program { return kernels.SP(12) }},
	} {
		cases = append(cases, machineCase{"kernel/" + k.name, k.prog, false, exec.Limits{}})
	}
	return cases
}

// TestMachineBatchParity runs each machine case on both engines against
// plain hierarchies, which batch, of every registered machine and of
// each at 1/64 of its capacity, each sequential and forced to set
// partitions, and requires the same outcome (see
// checkParityOn): the same prints, scalars, flops and error text, and
// the same level counters, channel bytes, memory transfers and
// register bytes.
func TestMachineBatchParity(t *testing.T) {
	var specs []machine.Spec
	for _, e := range machine.Entries() {
		specs = append(specs, e.Spec, machine.Scaled(e.Spec, 64))
	}
	for _, tc := range machineCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			if tc.canceled {
				canceled, cancel := context.WithCancel(ctx)
				cancel()
				ctx = canceled
			}
			for i, spec := range specs {
				t.Run(spec.Name, func(t *testing.T) {
					checkParityOn(t, ctx, tc.prog(), tc.lim, spec.NewHierarchy)
				})
				// The same with the hierarchy switched to 2, 4 or 8 set
				// partitions at its first batched chunk.
				k := 2 << (i % 3)
				t.Run(fmt.Sprintf("%s/parts%d", spec.Name, k), func(t *testing.T) {
					checkParityOn(t, ctx, tc.prog(), tc.lim, func() *sim.Hierarchy {
						h := spec.NewHierarchy()
						exec.ForcePartitions(h, k)
						return h
					})
				})
			}
		})
	}
}

// FuzzMachineBatchParity runs every program that parses, and whose
// arrays are small enough, on both engines against plain hierarchies
// whose geometry comes from geo (see fuzzHierarchy), sequential and
// forced to set partitions where the geometry allows, and requires the
// same outcome (see checkParityOn). It is seeded with the parity and
// batch cases and the programs in testdata.
func FuzzMachineBatchParity(f *testing.F) {
	geos := [][]byte{
		{0, 2, 1, 15, 0},                        // one level: 32-byte lines, 2 ways, 16 sets
		{1, 0, 0, 6, 3, 3, 3, 10, 0},            // write-through, no-write-allocate L1 over a write-back L2
		{2, 1, 3, 4, 0, 5, 7, 2, 2, 4, 1, 6, 1}, // three levels, set counts 5, 3 and 7
	}
	var srcs []string
	for _, tc := range parityCases {
		srcs = append(srcs, tc.src)
	}
	for _, tc := range batchCases {
		srcs = append(srcs, tc.src)
	}
	for _, file := range testdataSources(f) {
		srcs = append(srcs, file[1])
	}
	for i, src := range srcs {
		f.Add(src, geos[i%len(geos)])
	}
	f.Fuzz(func(t *testing.T, src string, geo []byte) {
		p, err := lang.Parse(src)
		if err != nil || elems(p) > fuzzMaxElems {
			return
		}
		cfgs := fuzzHierarchy(geo)
		checkParityOn(t, context.Background(), p, fuzzLimits, func() *sim.Hierarchy { return sim.MustHierarchy(cfgs...) })
		checkParityOn(t, context.Background(), p, fuzzLimits, func() *sim.Hierarchy {
			h := sim.MustHierarchy(cfgs...)
			exec.ForcePartitions(h, 2<<(len(geo)%3))
			return h
		})
	})
}

// fuzzHierarchy reads a hierarchy of 1 to 3 levels from geo: byte 0
// picks the level count, and four bytes per level its line size (8 to
// 256 bytes), ways (1 to 8), sets (1 to 64, most not powers of two) and
// policy: bit 0 write-through, bit 1 no-write-allocate. Missing bytes
// read as 0.
func fuzzHierarchy(geo []byte) []sim.CacheConfig {
	at := func(i int) int {
		if i < len(geo) {
			return int(geo[i])
		}
		return 0
	}
	cfgs := make([]sim.CacheConfig, 1+at(0)%3)
	for i := range cfgs {
		b := 1 + 4*i
		line, ways, sets := 8<<(at(b)%6), 1+at(b+1)%8, 1+at(b+2)%64
		cfgs[i] = sim.CacheConfig{Name: fmt.Sprintf("L%d", i+1), Size: line * ways * sets, LineSize: line, Assoc: ways,
			Policy: sim.WritePolicy(at(b+3) & 1), NoWriteAllocate: at(b+3)&2 != 0}
	}
	return cfgs
}

// testdataSources returns the programs in testdata, keyed by file
// name, in file name order.
func testdataSources(tb testing.TB) [][2]string {
	tb.Helper()
	files, err := filepath.Glob("../../testdata/*.bw")
	if err != nil || len(files) == 0 {
		tb.Fatalf("no testdata programs: %v", err)
	}
	var out [][2]string
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, [2]string{filepath.Base(name), string(src)})
	}
	return out
}

// TestMachineBatchConcurrentCallers runs one Compiled from several
// goroutines at once, each against its own Origin2000 hierarchy, from
// the first run on, so the lazy plan and the pooled chunk buffers are
// shared. Every hierarchy must end with the counters of a run made
// alone.
func TestMachineBatchConcurrentCallers(t *testing.T) {
	p := kernels.Dmxpy(40)
	spec := machine.Scaled(machine.Origin2000(), 64)
	alone := spec.NewHierarchy()
	if _, err := exec.Run(p, alone); err != nil {
		t.Fatal(err)
	}
	cp, err := exec.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]*sim.Hierarchy, 4)
	var wg sync.WaitGroup
	for g := range hs {
		hs[g] = spec.NewHierarchy()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cp.RunCtx(context.Background(), hs[g], exec.Limits{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, h := range hs {
		sameHierarchy(t, alone, h)
	}
}
