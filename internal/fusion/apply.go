package fusion

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/deps"
	"repro/internal/ir"
	"repro/internal/trace"
)

// Apply rewrites the program according to a partitioning: nests inside
// one partition fuse into a single loop (prefix statements hoisted
// before it, suffix statements sunk after it), partitions execute in
// sequence. The input program is not modified.
//
// Each fused nest must have the shape
//
//	[prefix statements…] for-loop [suffix statements…]
//
// with conformable outer loops, no fusion-preventing dependence between
// any pair in the partition, and prefix/suffix statements that do not
// conflict with the other nests they move across.
func Apply(p *ir.Program, parts Partition) (*ir.Program, error) {
	g, err := Build(p)
	if err != nil {
		return nil, err
	}
	return applyWith(p, g, parts)
}

// applyWith is Apply with the program's fusion graph supplied by the
// caller, so graph-holding callers do not pay for a rebuild (and the
// dependence analysis inside it).
func applyWith(p *ir.Program, g *Graph, parts Partition) (*ir.Program, error) {
	if err := g.Validate(parts); err != nil {
		return nil, err
	}
	out := p.Clone()
	out.Nests = nil
	for _, group := range parts {
		sorted := append([]int(nil), group...)
		sort.Ints(sorted)
		if len(sorted) == 1 {
			out.Nests = append(out.Nests, p.Nests[sorted[0]].Clone())
			continue
		}
		fused, err := fuseGroup(p, sorted)
		if err != nil {
			return nil, err
		}
		out.Nests = append(out.Nests, fused)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("fusion: fused program invalid: %w", err)
	}
	return out, nil
}

// nestShape splits a nest body into prefix, loop, suffix.
type nestShape struct {
	prefix []ir.Stmt
	loop   *ir.For
	suffix []ir.Stmt
}

func shapeOf(n *ir.Nest) (*nestShape, error) {
	sh := &nestShape{}
	for _, s := range n.Body {
		f, isFor := s.(*ir.For)
		switch {
		case isFor && sh.loop == nil:
			sh.loop = f
		case isFor:
			return nil, fmt.Errorf("fusion: nest %s has more than one top-level loop", n.Label)
		case sh.loop == nil:
			sh.prefix = append(sh.prefix, s)
		default:
			sh.suffix = append(sh.suffix, s)
		}
	}
	if sh.loop == nil {
		return nil, fmt.Errorf("fusion: nest %s has no loop to fuse", n.Label)
	}
	return sh, nil
}

// accessedNames returns every scalar and array name a statement list
// touches, split into reads and writes (loop variables excluded).
func accessedNames(p *ir.Program, ss []ir.Stmt) (reads, writes map[string]bool) {
	reads, writes = map[string]bool{}, map[string]bool{}
	declared := func(name string) bool {
		return p.ArrayByName(name) != nil || p.ScalarByName(name) != nil
	}
	var visitExpr func(ir.Expr)
	visitExpr = func(e ir.Expr) {
		switch e := e.(type) {
		case *ir.Var:
			if declared(e.Name) {
				reads[e.Name] = true
			}
		case *ir.Ref:
			if declared(e.Name) {
				reads[e.Name] = true
			}
			for _, ix := range e.Index {
				visitExpr(ix)
			}
		case *ir.Bin:
			visitExpr(e.L)
			visitExpr(e.R)
		case *ir.Neg:
			visitExpr(e.X)
		case *ir.Call:
			for _, a := range e.Args {
				visitExpr(a)
			}
		}
	}
	var visit func([]ir.Stmt)
	visit = func(ss []ir.Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *ir.For:
				visitExpr(s.Lo)
				visitExpr(s.Hi)
				visit(s.Body)
			case *ir.Assign:
				if declared(s.LHS.Name) {
					writes[s.LHS.Name] = true
				}
				for _, ix := range s.LHS.Index {
					visitExpr(ix)
				}
				visitExpr(s.RHS)
			case *ir.If:
				visitExpr(s.Cond)
				visit(s.Then)
				visit(s.Else)
			case *ir.ReadInput:
				if declared(s.Target.Name) {
					writes[s.Target.Name] = true
				}
				for _, ix := range s.Target.Index {
					visitExpr(ix)
				}
			case *ir.Print:
				visitExpr(s.Arg)
			}
		}
	}
	visit(ss)
	return reads, writes
}

// conflicts reports whether two access sets conflict (share a name with
// at least one write).
func conflicts(r1, w1, r2, w2 map[string]bool) bool {
	for n := range w1 {
		if r2[n] || w2[n] {
			return true
		}
	}
	for n := range w2 {
		if r1[n] {
			return true
		}
	}
	return false
}

func fuseGroup(p *ir.Program, group []int) (*ir.Nest, error) {
	shapes := make([]*nestShape, len(group))
	var labels []string
	for i, gi := range group {
		n := p.Nests[gi].Clone()
		labels = append(labels, p.Nests[gi].Label)
		sh, err := shapeOf(n)
		if err != nil {
			return nil, err
		}
		shapes[i] = sh
	}

	// Pairwise conformability and legality.
	for i := 0; i < len(group); i++ {
		for j := i + 1; j < len(group); j++ {
			if !deps.Conformable(p, p.Nests[group[i]], p.Nests[group[j]]) {
				return nil, fmt.Errorf("fusion: nests %s and %s have non-conformable outer loops",
					p.Nests[group[i]].Label, p.Nests[group[j]].Label)
			}
		}
	}

	// Prefix/suffix movement safety. A prefix of nest k hoists above
	// the loops (and prefixes) of nests before k; a suffix of nest k
	// sinks below the loops (and suffixes) of nests after k.
	for k := 1; k < len(group); k++ {
		pr, pw := accessedNames(p, shapes[k].prefix)
		for j := 0; j < k; j++ {
			jr, jw := accessedNames(p, p.Nests[group[j]].Body)
			if conflicts(pr, pw, jr, jw) {
				return nil, fmt.Errorf("fusion: prefix of nest %s conflicts with nest %s",
					p.Nests[group[k]].Label, p.Nests[group[j]].Label)
			}
		}
	}
	for k := 0; k < len(group)-1; k++ {
		sr, sw := accessedNames(p, shapes[k].suffix)
		for j := k + 1; j < len(group); j++ {
			jr, jw := accessedNames(p, p.Nests[group[j]].Body)
			if conflicts(sr, sw, jr, jw) {
				return nil, fmt.Errorf("fusion: suffix of nest %s conflicts with nest %s",
					p.Nests[group[k]].Label, p.Nests[group[j]].Label)
			}
		}
	}

	// Rename every loop variable to the first nest's and merge bodies.
	first := shapes[0].loop
	var mergedBody []ir.Stmt
	mergedBody = append(mergedBody, first.Body...)
	for k := 1; k < len(group); k++ {
		f := shapes[k].loop
		if f.Var != first.Var {
			if ir.UsesVar(f.Body, first.Var) {
				return nil, fmt.Errorf("fusion: nest %s already uses variable %q; cannot rename loop variable %q",
					p.Nests[group[k]].Label, first.Var, f.Var)
			}
			ir.SubstVar(f.Body, f.Var, ir.V(first.Var))
		}
		mergedBody = append(mergedBody, f.Body...)
	}

	var body []ir.Stmt
	for _, sh := range shapes {
		body = append(body, sh.prefix...)
	}
	body = append(body, &ir.For{Var: first.Var, Lo: first.Lo, Hi: first.Hi, Step: first.Step, Body: mergedBody})
	for _, sh := range shapes {
		body = append(body, sh.suffix...)
	}
	return &ir.Nest{Label: strings.Join(labels, "_"), Body: body}, nil
}

// FuseGreedily builds the fusion graph, runs the recursive-bisection
// heuristic, applies the result, and returns the fused program with the
// partitioning used.
func FuseGreedily(p *ir.Program) (*ir.Program, Partition, error) {
	g, err := Build(p)
	if err != nil {
		return nil, nil, err
	}
	parts, err := g.Heuristic()
	if err != nil {
		return nil, nil, err
	}
	fused, err := applyWith(p, g, parts)
	if err != nil {
		return nil, nil, err
	}
	return fused, parts, nil
}

// ApplyCtx is Apply starting from an already-built fusion graph of the
// same program (for callers that built it to choose the partition),
// under a fusion.apply trace span parented at ctx.
func ApplyCtx(ctx context.Context, p *ir.Program, g *Graph, parts Partition) (*ir.Program, error) {
	_, span := trace.StartSpan(ctx, "fusion.apply", trace.Int("partitions", int64(len(parts))))
	fused, err := applyWith(p, g, parts)
	if err != nil {
		span.End(trace.String("error", err.Error()))
		return nil, err
	}
	span.End(trace.Int("nests", int64(len(fused.Nests))))
	return fused, nil
}
