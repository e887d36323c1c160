package exec

import "context"

// BatchedLoops runs cp once with no machine and returns, per loop that
// may run a chunk at a time, named "nest/var", how many of its
// executions did. A loop missing from the map never qualified.
func BatchedLoops(ctx context.Context, cp *Compiled, lim Limits) (map[string]int64, error) {
	env := cp.newEnv(make([]float64, cp.elems), lim)
	env.useBatch(cp.plans(), nil)
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
		env.useBatch(cp.plans(), nil)
	}
	if err := cp.runOnce(ctx, env); err != nil {
		return nil, err
	}
	return cp.withArrays(env), nil
}
