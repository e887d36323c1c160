package exec

import (
	"context"
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

// BatchedLoops runs cp once against h, which may be nil, and returns,
// per loop that may run a chunk at a time, named "nest/var", how many
// of its executions did. A loop missing from the map never qualified;
// under a machine that keeps every loop per iteration, the map is
// empty.
func BatchedLoops(ctx context.Context, cp *Compiled, h Machine, lim Limits) (map[string]int64, error) {
	env := cp.newEnv(make([]float64, cp.elems), lim)
	if bufs := cp.attach(env, h); bufs != nil {
		defer putSlab(bufs)
	}
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

// RunVector runs input vector v as RunVectors does, but alone, on fresh
// storage, and batched or strictly per iteration. Its result carries
// the final arrays.
func RunVector(ctx context.Context, cp *Compiled, v int, lim Limits, batched bool) (*Result, error) {
	env := cp.vectorEnv(make([]float64, cp.elems), v, lim)
	if batched {
		if bufs := cp.attach(env, nil); bufs != nil {
			defer putSlab(bufs)
		}
	}
	if err := cp.runOnce(ctx, env); err != nil {
		return nil, err
	}
	return cp.withArrays(env), nil
}
