package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/balance"
	"repro/internal/bounds"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// probeRounds is how many times the call probe repeats each call.
const probeRounds = 3

// execSimProbe splits measurement cost from outside: it compiles each
// entry's program, runs it with no machine, then again on the
// machine's hierarchy, and charges the difference to the simulator.
// measureS is the balance.measure_s the simulator's share is taken of.
func execSimProbe(ctx context.Context, entries []sweepEntry, measureS float64, m metrics) error {
	var compile, bare, simulated time.Duration
	var iters, accesses int64
	for _, e := range entries {
		begin := time.Now()
		cp, err := exec.Compile(e.prog)
		compile += time.Since(begin)
		if err != nil {
			return fmt.Errorf("%s: %w", e.key, err)
		}
		tr := trace.New()
		root := tr.Start(nil, "probe")
		begin = time.Now()
		_, err = cp.RunCtx(trace.NewContext(ctx, root), nil, exec.Limits{})
		bare += time.Since(begin)
		if err != nil {
			return fmt.Errorf("%s: %w", e.key, err)
		}
		root.End()
		iters += intAttr(tr.Tree()[0].Children[0], "steps")
		h := e.spec.NewHierarchy()
		begin = time.Now()
		if _, err := cp.RunCtx(ctx, h, exec.Limits{}); err != nil {
			return fmt.Errorf("%s: %w", e.key, err)
		}
		simulated += time.Since(begin)
		st := h.LevelStats(0)
		accesses += st.Reads + st.Writes
	}
	n := float64(len(entries))
	simNS := float64((simulated - bare).Nanoseconds())
	m.set("exec.compile_s", compile.Seconds()/n)
	m.set("exec.compiled_ns_per_iter", float64(bare.Nanoseconds())/float64(iters))
	m.set("sim.accesses", float64(accesses)/n)
	m.set("sim.ns_per_access", simNS/float64(accesses))
	if measureS > 0 {
		m.set("sim.share", simNS/1e9/n/measureS)
	}
	return nil
}

// callProbe times, on each source, the parse a request with inline
// source pays, and the plain, profiled and MRC measurements and the
// bounds analysis an analyze request runs, on Origin2000. It returns
// the mean plain measurement in seconds.
func callProbe(ctx context.Context, sources []string, m metrics) (float64, error) {
	spec := machine.Origin2000()
	var parse, plain, profiled, mrc, bnd time.Duration
	var parsed, accesses int64
	calls := 0
	for _, src := range sources {
		for i := 0; i < probeRounds; i++ {
			begin := time.Now()
			p, err := lang.Parse(src)
			parse += time.Since(begin)
			if err != nil {
				return 0, err
			}
			parsed += int64(len(src))
			calls++
			for _, c := range []struct {
				d       *time.Duration
				measure func(context.Context, *ir.Program, machine.Spec, exec.Limits) (*balance.Report, error)
			}{{&plain, balance.MeasureCtx}, {&profiled, balance.MeasureProfiled}, {&mrc, balance.MeasureMRC}} {
				begin = time.Now()
				rep, err := c.measure(ctx, p, spec, exec.Limits{})
				*c.d += time.Since(begin)
				if err != nil {
					return 0, fmt.Errorf("%s: %w", p.Name, err)
				}
				if c.d == &plain {
					st := rep.LevelStats[0]
					accesses += st.Reads + st.Writes
				}
			}
			begin = time.Now()
			if _, err := bounds.Analyze(ctx, p, bounds.FastCapacity(spec), exec.Limits{}); err != nil {
				return 0, fmt.Errorf("%s: %w", p.Name, err)
			}
			bnd += time.Since(begin)
		}
	}
	n := float64(calls)
	m.set("lang.parse_s", parse.Seconds()/n)
	m.set("lang.parse_mb_per_s", float64(parsed)/1e6/parse.Seconds())
	m.set("sim.profile_x", profiled.Seconds()/plain.Seconds())
	m.set("sim.mrc_x", mrc.Seconds()/plain.Seconds())
	m.set("bounds.analyze_s", bnd.Seconds()/n)
	m.set("sim.accesses", float64(accesses)/n)
	return plain.Seconds() / n, nil
}

// fixedProbe fills every per-layer metric the workload left unset with
// a measurement of that layer on one small fixed program, fig7 at
// n=4096 on Origin2000. A layer a workload does not exercise thus
// reads a measured figure, the same on every workload, rather than 0;
// only the service's counters stay 0 outside serve-mixed.
func fixedProbe(ctx context.Context, m metrics) error {
	p := kernels.Fig7Original(4096)
	src := p.String()
	fb := metrics{}
	lg := newLedger()
	var stats outcomeStats
	for i := 0; i < probeRounds; i++ {
		tr := trace.New()
		root := tr.Start(nil, opSpan)
		_, out, err := parseAndOptimize(trace.NewContext(ctx, root), src)
		root.End()
		if err != nil {
			return fmt.Errorf("probe optimize: %w", err)
		}
		lg.add(tr.Tree()[0])
		stats.add(out)
	}
	lg.metrics(fb)
	stats.metrics(fb)
	measureS, err := callProbe(ctx, []string{src}, fb)
	if err != nil {
		return err
	}
	fb.set("balance.measure_s", measureS)
	entry := sweepEntry{key: "probe", prog: p, spec: machine.Origin2000()}
	if err := execSimProbe(ctx, []sweepEntry{entry}, measureS, fb); err != nil {
		return err
	}
	replayS, err := replayProbe(ctx, p, machine.Origin2000())
	if err != nil {
		return err
	}
	fb.set("sim.replay_s", replayS)
	for name, v := range fb {
		if _, ok := m[name]; !ok && name != "trace.unattributed_frac" {
			m[name] = v
		}
	}
	return nil
}

// replayProbe records p's access stream at spec's last cache level and
// times its LRU and Belady replays, as a Belady analyze request does.
func replayProbe(ctx context.Context, p *ir.Program, spec machine.Spec) (float64, error) {
	cfg := spec.Caches[len(spec.Caches)-1]
	cfg.Policy = sim.WriteBack
	cfg.NoWriteAllocate = false
	rec, err := sim.NewRecorder(cfg)
	if err != nil {
		return 0, err
	}
	cp, err := exec.Compile(p)
	if err != nil {
		return 0, err
	}
	if _, err := cp.RunCtx(ctx, rec, exec.Limits{}); err != nil {
		return 0, err
	}
	begin := time.Now()
	for i := 0; i < probeRounds; i++ {
		if _, err := sim.ReplayLRUCtx(ctx, rec.Trace()); err != nil {
			return 0, err
		}
		if _, err := sim.ReplayBeladyCtx(ctx, rec.Trace()); err != nil {
			return 0, err
		}
	}
	return time.Since(begin).Seconds() / probeRounds, nil
}
