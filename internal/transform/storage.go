// Package transform implements the paper's storage optimizations
// (Sections 3.2 and 3.3): array contraction to a scalar, array
// shrinking to a current-value scalar plus a one-iteration carry
// buffer, array peeling by loop peeling, and store elimination — plus
// the pass pipeline (fuse → reduce storage → eliminate stores) that is
// the paper's full compiler strategy.
//
// Every transformation returns a new program; inputs are never
// modified. Every transformation re-validates its applicability (the
// liveness classification is advisory), and the test suite checks
// semantic equivalence of original and transformed programs by running
// both on the interpreter.
package transform

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/liveness"
)

// freshName returns a name not yet declared in the program.
func freshName(p *ir.Program, base string) string {
	taken := func(n string) bool {
		if _, ok := p.Consts[n]; ok {
			return true
		}
		return p.ArrayByName(n) != nil || p.ScalarByName(n) != nil
	}
	if !taken(base) {
		return base
	}
	for i := 2; ; i++ {
		n := fmt.Sprintf("%s%d", base, i)
		if !taken(n) {
			return n
		}
	}
}

// usedOnlyIn reports whether the array is referenced exclusively inside
// the given nest.
func usedOnlyIn(p *ir.Program, nestIdx int, array string) bool {
	for i, n := range p.Nests {
		if i == nestIdx {
			continue
		}
		found := false
		ir.WalkRefs(n.Body, p, func(r *ir.Ref, w bool) {
			if r.Name == array {
				found = true
			}
		})
		if found {
			return false
		}
	}
	return true
}

// removeArrayDecl drops the array from the declaration list.
func removeArrayDecl(p *ir.Program, name string) {
	out := p.Arrays[:0]
	for _, a := range p.Arrays {
		if a.Name != name {
			out = append(out, a)
		}
	}
	p.Arrays = out
}

// ContractArray replaces an array whose element live ranges fit inside
// one loop iteration with a single scalar (the paper's b → b1 in
// Figure 6, and Sarkar & Gao's array contraction as a special case).
// The array must be used only in the named nest and must be
// ScalarLike there.
func ContractArray(p *ir.Program, nestIdx int, array string) (*ir.Program, error) {
	return contractArrayCl(p, nestIdx, array, liveness.Classify(p, nestIdx, array))
}

// contractArrayCl is ContractArray with the classification supplied by
// the caller (the pass manager, which classified the array to choose
// the transformation).
func contractArrayCl(p *ir.Program, nestIdx int, array string, cl liveness.Class) (*ir.Program, error) {
	if cl.Kind != liveness.ScalarLike {
		return nil, fmt.Errorf("transform: %s is %s in nest %d (%s), cannot contract",
			array, cl.Kind, nestIdx, cl.Reason)
	}
	if !usedOnlyIn(p, nestIdx, array) {
		return nil, fmt.Errorf("transform: %s is used outside nest %d", array, nestIdx)
	}
	out := p.Clone()
	scalar := freshName(out, array+"_s")
	out.DeclareScalar(scalar)
	replaceAllRefs(out.Nests[nestIdx].Body, array, func(read bool) (ir.Expr, *ir.Ref) {
		if read {
			return ir.V(scalar), nil
		}
		return nil, ir.S(scalar)
	})
	removeArrayDecl(out, array)
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("transform: contraction produced invalid program: %w", err)
	}
	return out, nil
}

// replaceAllRefs rewrites every reference to the named array. The
// callback returns the replacement for reads (an expression) and for
// writes (an assignable reference).
func replaceAllRefs(ss []ir.Stmt, array string, repl func(read bool) (ir.Expr, *ir.Ref)) {
	var visitExpr func(e ir.Expr) ir.Expr
	visitExpr = func(e ir.Expr) ir.Expr {
		switch e := e.(type) {
		case *ir.Ref:
			if !e.IsScalar() && e.Name == array {
				r, _ := repl(true)
				return r
			}
			for i, ix := range e.Index {
				e.Index[i] = visitExpr(ix)
			}
			return e
		case *ir.Bin:
			e.L = visitExpr(e.L)
			e.R = visitExpr(e.R)
			return e
		case *ir.Neg:
			e.X = visitExpr(e.X)
			return e
		case *ir.Call:
			for i, a := range e.Args {
				e.Args[i] = visitExpr(a)
			}
			return e
		default:
			return e
		}
	}
	var visit func(ss []ir.Stmt)
	visit = func(ss []ir.Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *ir.For:
				s.Lo = visitExpr(s.Lo)
				s.Hi = visitExpr(s.Hi)
				visit(s.Body)
			case *ir.Assign:
				if !s.LHS.IsScalar() && s.LHS.Name == array {
					_, w := repl(false)
					s.LHS = w
				} else {
					for i, ix := range s.LHS.Index {
						s.LHS.Index[i] = visitExpr(ix)
					}
				}
				s.RHS = visitExpr(s.RHS)
			case *ir.If:
				s.Cond = visitExpr(s.Cond)
				visit(s.Then)
				visit(s.Else)
			case *ir.ReadInput:
				if !s.Target.IsScalar() && s.Target.Name == array {
					_, w := repl(false)
					s.Target = w
				} else {
					for i, ix := range s.Target.Index {
						s.Target.Index[i] = visitExpr(ix)
					}
				}
			case *ir.Print:
				s.Arg = visitExpr(s.Arg)
			}
		}
	}
	visit(ss)
}

// ShrinkArray replaces an array whose live ranges span exactly one
// iteration of an enclosing loop with a current-value scalar plus a
// carry buffer over the deeper index dimensions — the paper's
// a[N,N] → a2 (scalar) + a3[N] (buffer) in Figure 6(c). The array must
// be used only in the named nest and classify as CarryOne.
func ShrinkArray(p *ir.Program, nestIdx int, array string) (*ir.Program, error) {
	return shrinkArrayCl(p, nestIdx, array, liveness.Classify(p, nestIdx, array))
}

// shrinkArrayCl is ShrinkArray with the classification supplied by the
// caller (the pass manager, which classified the array to choose the
// transformation).
func shrinkArrayCl(p *ir.Program, nestIdx int, array string, cl liveness.Class) (*ir.Program, error) {
	if cl.Kind != liveness.CarryOne {
		return nil, fmt.Errorf("transform: %s is %s in nest %d (%s), cannot shrink",
			array, cl.Kind, nestIdx, cl.Reason)
	}
	if !usedOnlyIn(p, nestIdx, array) {
		return nil, fmt.Errorf("transform: %s is used outside nest %d", array, nestIdx)
	}
	out := p.Clone()
	nest := out.Nests[nestIdx]
	decl := out.ArrayByName(array)

	// Identify the write's index: the carry dimension uses cl.CarryVar;
	// the remaining dimensions form the buffer index.
	writeUse := *cl.Write
	var bufDims []int
	var bufIdxTemplate []ir.Expr
	carryDim := -1
	for k, ixe := range writeUse.Ref.Index {
		a, ok := ir.AffineOf(ixe, p.Consts)
		if !ok {
			return nil, fmt.Errorf("transform: non-affine write subscript")
		}
		if a.Coeff(cl.CarryVar) != 0 {
			if carryDim != -1 {
				return nil, fmt.Errorf("transform: carry variable %s drives two dimensions", cl.CarryVar)
			}
			carryDim = k
			continue
		}
		bufDims = append(bufDims, decl.Dims[k])
		bufIdxTemplate = append(bufIdxTemplate, ir.CloneExpr(ixe))
	}
	if carryDim == -1 {
		return nil, fmt.Errorf("transform: carry variable %s not in write subscript", cl.CarryVar)
	}

	// The carry copy (prev := cur) is inserted at the end of the
	// innermost loop body holding the write, after every carry read of
	// the iteration (the paper places "a3[i] = a2" last in Figure 6(c)).
	// That placement is only correct when the write executes
	// unconditionally in its loop body.
	if len(cl.Write.Guards) != 0 {
		return nil, fmt.Errorf("transform: write to %s is conditional; cannot place carry copy", array)
	}
	cur := freshName(out, array+"_cur")
	out.DeclareScalar(cur)
	var prevName string
	prevIsScalar := len(bufDims) == 0
	if prevIsScalar {
		prevName = freshName(out, array+"_prev")
		out.DeclareScalar(prevName)
	} else {
		prevName = freshName(out, array+"_prev")
		out.Arrays = append(out.Arrays, &ir.Array{Name: prevName, Dims: bufDims})
	}
	prevRef := func() *ir.Ref {
		if prevIsScalar {
			return ir.S(prevName)
		}
		idx := make([]ir.Expr, len(bufIdxTemplate))
		for i, e := range bufIdxTemplate {
			idx[i] = ir.CloneExpr(e)
		}
		return &ir.Ref{Name: prevName, Index: idx}
	}
	prevReadExpr := func() ir.Expr {
		if prevIsScalar {
			return ir.V(prevName)
		}
		return prevRef()
	}

	// Rewrite. Reads: distance 0 → cur, distance 1 along carry → prev.
	// Writes: → cur, followed by prev := cur at end of the loop body.
	classifyRead := func(r *ir.Ref) (carry bool, err error) {
		// Rebuild a Use for r by locating it among collected uses via
		// structural identity of the printed form plus read-ness; since
		// all distance-0 reads and all carry reads rewrite the same
		// way, matching on the index delta recomputed directly is
		// simpler and robust.
		ru := liveness.Use{Ref: r, Loops: writeUse.Loops}
		dv, dist, ok := liveness.Delta(p, writeUse, ru)
		if !ok {
			return false, fmt.Errorf("transform: unanalyzable read %s", ir.ExprString(r))
		}
		switch {
		case dist == 0:
			return false, nil
		case dist == 1 && dv == cl.CarryVar:
			return true, nil
		default:
			return false, fmt.Errorf("transform: read %s at unsupported distance", ir.ExprString(r))
		}
	}
	var rewriteErr error
	var visitExpr func(e ir.Expr) ir.Expr
	visitExpr = func(e ir.Expr) ir.Expr {
		switch e := e.(type) {
		case *ir.Ref:
			if !e.IsScalar() && e.Name == array {
				carry, err := classifyRead(e)
				if err != nil {
					rewriteErr = err
					return e
				}
				if carry {
					return prevReadExpr()
				}
				return ir.V(cur)
			}
			for i, ix := range e.Index {
				e.Index[i] = visitExpr(ix)
			}
			return e
		case *ir.Bin:
			e.L = visitExpr(e.L)
			e.R = visitExpr(e.R)
			return e
		case *ir.Neg:
			e.X = visitExpr(e.X)
			return e
		case *ir.Call:
			for i, a := range e.Args {
				e.Args[i] = visitExpr(a)
			}
			return e
		default:
			return e
		}
	}
	var visit func(ss []ir.Stmt) []ir.Stmt
	visit = func(ss []ir.Stmt) []ir.Stmt {
		var outSS []ir.Stmt
		wroteHere := false
		for _, s := range ss {
			switch s := s.(type) {
			case *ir.For:
				s.Lo = visitExpr(s.Lo)
				s.Hi = visitExpr(s.Hi)
				s.Body = visit(s.Body)
				outSS = append(outSS, s)
			case *ir.Assign:
				isTargetWrite := !s.LHS.IsScalar() && s.LHS.Name == array
				s.RHS = visitExpr(s.RHS)
				if isTargetWrite {
					s.LHS = ir.S(cur)
					wroteHere = true
				} else {
					for i, ix := range s.LHS.Index {
						s.LHS.Index[i] = visitExpr(ix)
					}
				}
				outSS = append(outSS, s)
			case *ir.If:
				s.Cond = visitExpr(s.Cond)
				s.Then = visit(s.Then)
				s.Else = visit(s.Else)
				outSS = append(outSS, s)
			case *ir.ReadInput:
				if !s.Target.IsScalar() && s.Target.Name == array {
					s.Target = ir.S(cur)
					wroteHere = true
				} else {
					for i, ix := range s.Target.Index {
						s.Target.Index[i] = visitExpr(ix)
					}
				}
				outSS = append(outSS, s)
			case *ir.Print:
				s.Arg = visitExpr(s.Arg)
				outSS = append(outSS, s)
			default:
				outSS = append(outSS, s)
			}
		}
		if wroteHere {
			// End-of-body carry: runs after every use of the iteration.
			outSS = append(outSS, ir.Let(prevRef(), ir.V(cur)))
		}
		return outSS
	}
	nest.Body = visit(nest.Body)
	if rewriteErr != nil {
		return nil, rewriteErr
	}
	removeArrayDecl(out, array)
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("transform: shrinking produced invalid program: %w", err)
	}
	return out, nil
}
