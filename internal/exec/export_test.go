package exec

import (
	"context"
	"slices"
	_ "unsafe" // go:linkname

	"repro/internal/sim"
)

// ForcePartitions makes h switch to at most k set partitions at its
// first Strides call, whatever the CPU count, so the parity tests run
// the partitioned simulation on small programs. It is sim's unexported
// test seam; the simulator has no such option.
//
//go:linkname ForcePartitions repro/internal/sim.forcePartitions
func ForcePartitions(h *sim.Hierarchy, k int)

// BatchedLoops runs cp once against h, which may be nil, as RunCtx
// does, and returns, per loop that may run a chunk at a time, named
// "nest/var", how many of its executions did. A loop missing from the
// map never qualified; under a machine that keeps every loop per
// iteration, the map is empty.
func BatchedLoops(ctx context.Context, cp *Compiled, h Machine, lim Limits) (map[string]int64, error) {
	env := cp.vectorEnv(h, 0, lim)
	defer env.release()
	env.batched = make([]int64, len(env.batch))
	if err := cp.runOnce(ctx, env); err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for id, b := range env.batch {
		if b != nil {
			out[cp.prog.Nests[b.site.nest].Label+"/"+b.site.loop.Var] = env.batched[id]
		}
	}
	return out, nil
}

// RunVector runs input vector v against h, which may be nil, on the
// path RunCtx (vector 0) and RunVectors (no machine) take, batched
// where the run may or strictly per iteration. Its result carries
// copies of the final arrays, taken before the slab goes back to the
// pool.
func RunVector(ctx context.Context, cp *Compiled, h Machine, v int, lim Limits, batched bool) (*Result, error) {
	env := cp.vectorEnv(h, v, lim)
	defer env.release()
	if !batched {
		env.batch = nil
	}
	if err := cp.runOnce(ctx, env); err != nil {
		return nil, err
	}
	env.res.arrays = make(map[string][]float64, len(cp.arrayOrder))
	for i, a := range cp.arrayOrder {
		env.res.arrays[a.Name] = slices.Clone(env.arrays[i].data)
	}
	return env.res, nil
}
