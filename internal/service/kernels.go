package service

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bounds"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
)

// KernelInfo describes one named built-in program the service can
// analyze without the client sending source.
type KernelInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	DefaultN    int    `json:"default_n"`
	MaxN        int    `json:"max_n"`

	// LowerBound is the precomputed data-movement lower bound of the
	// kernel at its default size on the reference machine (see
	// kernelBounds). Absent if the bound engine cannot analyze it.
	LowerBound *KernelBound `json:"lower_bound,omitempty"`
	// LowerBounds holds one precomputed bound row per registered
	// machine (the bound depends on the machine only through its
	// fast-memory capacity, so machines sharing a capacity share the
	// computation). LowerBound is the Origin2000 row of this list.
	LowerBounds []KernelBound `json:"lower_bounds,omitempty"`
	// BestKnownGap is the smallest optimality gap (measured traffic /
	// lower bound) any request to this process has achieved for the
	// kernel; 1.0 means a provably traffic-minimal schedule has been
	// observed. Absent until some request measures the kernel.
	BestKnownGap float64 `json:"best_known_gap,omitempty"`

	build func(n int) (*ir.Program, error)
}

// KernelBound pins down what a KernelInfo's precomputed lower bound
// refers to: the kernel instantiated at N on Machine's fast memory.
type KernelBound struct {
	N          int    `json:"n"`
	Machine    string `json:"machine"`
	FastBytes  int64  `json:"fast_bytes"`
	BoundBytes int64  `json:"bound_bytes"`
	Kind       string `json:"kind"`
}

// kernelBounds lazily computes the lower bound of every built-in at
// its default size on every registered machine, once per process. The
// footprint pass executes each kernel, so this is deliberately not
// done at init; the first GET /v1/kernels pays for it and later calls
// reuse the table. Each kernel's footprint and pebbling structure are
// computed once, so extra machines only cost a cheap per-capacity
// bound query. Kernels the engine cannot analyze are simply absent.
var kernelBounds = sync.OnceValue(func() map[string][]KernelBound {
	entries := machine.Entries()
	out := make(map[string][]KernelBound, len(kernelTable))
	for name, k := range kernelTable {
		p, _, err := buildKernel(name, k.DefaultN)
		if err != nil {
			continue
		}
		fp, err := bounds.ComputeFootprint(context.Background(), p, exec.Limits{})
		if err != nil {
			continue
		}
		pb := bounds.ComputePebble(p)
		var rows []KernelBound
		for _, e := range entries {
			a := bounds.Assemble(p.Name, bounds.FastCapacity(e.Spec), fp, pb)
			if a.Best.Bytes <= 0 {
				continue
			}
			rows = append(rows, KernelBound{
				N:          k.DefaultN,
				Machine:    e.Spec.Name,
				FastBytes:  a.FastBytes,
				BoundBytes: a.Best.Bytes,
				Kind:       a.Best.Kind,
			})
		}
		if len(rows) > 0 {
			out[name] = rows
		}
	}
	return out
})

// kernelTable is the registry of built-ins. Size caps keep a single
// request's footprint bounded (the exec step budget bounds its time);
// 2-D and 3-D kernels get smaller caps because their work and storage
// grow superlinearly in n.
var kernelTable = func() map[string]KernelInfo {
	ok := func(f func(n int) *ir.Program) func(int) (*ir.Program, error) {
		return func(n int) (*ir.Program, error) { return f(n), nil }
	}
	list := []KernelInfo{
		{Name: "sec21-write", Description: "Section 2.1 read-modify-write sweep", DefaultN: 100_000, MaxN: 4 << 20, build: ok(kernels.Sec21Write)},
		{Name: "sec21-read", Description: "Section 2.1 pure reduction", DefaultN: 100_000, MaxN: 4 << 20, build: ok(kernels.Sec21Read)},
		{Name: "sec21", Description: "Section 2.1 write+read pair (fusion candidate)", DefaultN: 100_000, MaxN: 4 << 20, build: ok(kernels.Sec21Pair)},
		{Name: "fig6a", Description: "Figure 6(a) original four-loop program", DefaultN: 64, MaxN: 1024, build: ok(kernels.Fig6Original)},
		{Name: "fig6b", Description: "Figure 6(b) hand-fused form", DefaultN: 64, MaxN: 1024, build: ok(kernels.Fig6Fused)},
		{Name: "fig6c", Description: "Figure 6(c) shrunk and peeled form", DefaultN: 64, MaxN: 1024, build: ok(kernels.Fig6ShrunkPeeled)},
		{Name: "fig7", Description: "Figure 7(a) update+sum program", DefaultN: 100_000, MaxN: 4 << 20, build: ok(kernels.Fig7Original)},
		{Name: "fig8", Description: "Figure 8 store-elimination workload", DefaultN: 100_000, MaxN: 4 << 20, build: ok(kernels.Fig8Workload)},
		{Name: "conv", Description: "three-point convolution filter (Figure 1)", DefaultN: 100_000, MaxN: 4 << 20, build: ok(kernels.Convolution)},
		{Name: "dmxpy", Description: "Linpack dmxpy matrix-vector kernel (Figure 1)", DefaultN: 128, MaxN: 1024, build: ok(kernels.Dmxpy)},
		{Name: "matmul", Description: "matrix multiply in j-k-i order (Figure 1)", DefaultN: 64, MaxN: 384, build: ok(kernels.MatmulJKI)},
		{Name: "fft", Description: "radix-2 FFT (n must be a power of two)", DefaultN: 1024, MaxN: 1 << 16, build: kernels.FFT},
		{Name: "sp", Description: "SP-like ADI solver proxy", DefaultN: 16, MaxN: 64, build: ok(kernels.SP)},
		{Name: "sweep3d", Description: "Sweep3D-like wavefront transport sweep", DefaultN: 32, MaxN: 256,
			build: func(n int) (*ir.Program, error) { return kernels.Sweep3D(n, 6), nil }},
	}
	for _, name := range kernels.StrideKernelNames {
		name := name
		list = append(list, KernelInfo{
			Name:        "stride-" + name,
			Description: fmt.Sprintf("Figure 3 unit-stride kernel %s", name),
			DefaultN:    100_000, MaxN: 4 << 20,
			build: func(n int) (*ir.Program, error) { return kernels.StrideKernel(name, n) },
		})
	}
	m := make(map[string]KernelInfo, len(list))
	for _, k := range list {
		m[k.Name] = k
	}
	return m
}()

// Kernels lists the built-in programs, sorted by name.
func Kernels() []KernelInfo {
	out := make([]KernelInfo, 0, len(kernelTable))
	for _, k := range kernelTable {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// buildKernel instantiates a named kernel at size n (0 = its default).
// The effective size is returned so cache keys canonicalize "n omitted"
// and "n = default" to the same entry.
func buildKernel(name string, n int) (*ir.Program, int, error) {
	k, ok := kernelTable[name]
	if !ok {
		return nil, 0, fmt.Errorf("unknown kernel %q (GET /v1/kernels lists the built-ins)", name)
	}
	if n == 0 {
		n = k.DefaultN
	}
	if n < 2 || n > k.MaxN {
		return nil, 0, fmt.Errorf("kernel %q size n=%d outside [2,%d]", name, n, k.MaxN)
	}
	p, err := k.build(n)
	return p, n, err
}
