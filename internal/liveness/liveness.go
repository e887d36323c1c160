// Package liveness analyzes array live ranges, the enabling analysis
// for the paper's storage reduction and store elimination (Section 3.2,
// 3.3): after fusion localizes all uses of an array inside one nest,
// the element-level live-range shape decides which transformation
// applies:
//
//   - every element's live range is contained in a single iteration →
//     the array contracts to a scalar (Figure 6's b → b1);
//   - live ranges span exactly one iteration of an enclosing loop →
//     the array shrinks to a current-value scalar plus a small carry
//     buffer over the deeper dimensions (Figure 6's a → a2, a3);
//   - values are produced and fully consumed within the nest and never
//     used afterwards → the writeback can be eliminated (Figure 7).
//
// Nest-level liveness (which nests touch an array first/last, and
// whether it is live past a given nest) guards all three: none applies
// to an array whose values someone still needs.
package liveness

import (
	"fmt"

	"repro/internal/ir"
)

// ArrayLife summarizes where one array is accessed across the program.
type ArrayLife struct {
	Name       string
	FirstRead  int // nest index, -1 if never read
	LastRead   int
	FirstWrite int
	LastWrite  int
}

// Info holds per-array liveness for a program.
type Info struct {
	prog   *ir.Program
	Arrays map[string]*ArrayLife
}

// Analyze computes nest-level array liveness.
func Analyze(p *ir.Program) (*Info, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inf := &Info{prog: p, Arrays: map[string]*ArrayLife{}}
	for _, a := range p.Arrays {
		inf.Arrays[a.Name] = &ArrayLife{Name: a.Name, FirstRead: -1, LastRead: -1, FirstWrite: -1, LastWrite: -1}
	}
	for i, n := range p.Nests {
		ir.WalkRefs(n.Body, p, func(r *ir.Ref, w bool) {
			al := inf.Arrays[r.Name]
			if w {
				if al.FirstWrite == -1 {
					al.FirstWrite = i
				}
				al.LastWrite = i
			} else {
				if al.FirstRead == -1 {
					al.FirstRead = i
				}
				al.LastRead = i
			}
		})
	}
	return inf, nil
}

// LiveAfter reports whether the array's values may still be needed
// after the given nest: it is read by a later nest.
func (inf *Info) LiveAfter(name string, nest int) bool {
	al := inf.Arrays[name]
	if al == nil {
		return false
	}
	return al.LastRead > nest
}

// LiveBefore reports whether the array may carry values into the given
// nest: it is written (or read, implying external initialization
// elsewhere) by an earlier nest.
func (inf *Info) LiveBefore(name string, nest int) bool {
	al := inf.Arrays[name]
	if al == nil {
		return false
	}
	return (al.FirstWrite != -1 && al.FirstWrite < nest) || (al.FirstRead != -1 && al.FirstRead < nest)
}

// --- Element-level live-range classification ------------------------------

// Use is one array reference inside a nest with its analysis context.
type Use struct {
	Ref   *ir.Ref
	Write bool
	Order int // traversal order within the nest body (reads of an
	// assignment's RHS precede its store)
	Loops  []*ir.For // enclosing loops, outermost first
	Guards []Guard   // enclosing conditions known to hold at the use
}

// Guard is a branch condition of the form  var OP const  known to hold.
type Guard struct {
	Var string
	Op  ir.Op
	C   int64
}

// Implies reports whether the guard guarantees v >= bound.
func (g Guard) ImpliesGE(v string, bound int64) bool {
	if g.Var != v {
		return false
	}
	switch g.Op {
	case ir.Ge:
		return g.C >= bound
	case ir.Gt:
		return g.C+1 >= bound
	case ir.Eq:
		return g.C >= bound
	default:
		return false
	}
}

// CollectUses gathers every array reference of the named array in the
// nest, in execution-order of one iteration.
func CollectUses(p *ir.Program, n *ir.Nest, array string) []Use {
	var out []Use
	order := 0
	var loops []*ir.For
	var guards []Guard

	snap := func() ([]*ir.For, []Guard) {
		l := make([]*ir.For, len(loops))
		copy(l, loops)
		g := make([]Guard, len(guards))
		copy(g, guards)
		return l, g
	}
	emit := func(r *ir.Ref, w bool) {
		order++
		if r.IsScalar() || r.Name != array {
			return
		}
		l, g := snap()
		out = append(out, Use{Ref: r, Write: w, Order: order, Loops: l, Guards: g})
	}
	var visitExpr func(e ir.Expr)
	visitExpr = func(e ir.Expr) {
		switch e := e.(type) {
		case *ir.Ref:
			emit(e, false)
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
	// guardsOf extracts var-OP-const facts from a condition for one
	// branch polarity, folding program constants so a bound like N-1
	// is captured. Conjunctions decompose; unrecognized shapes yield
	// no fact but still mark the use as guarded via the conservative
	// sentinel below, because EliminateStores treats an empty guard
	// list as proof of an unconditional store.
	var guardsOf func(cond ir.Expr, negated bool) []Guard
	guardsOf = func(cond ir.Expr, negated bool) []Guard {
		unknownGuard := []Guard{{Var: "", Op: ir.Ne, C: 0}}
		b, ok := cond.(*ir.Bin)
		if !ok {
			return unknownGuard
		}
		if b.Op == ir.And && !negated {
			return append(guardsOf(b.L, false), guardsOf(b.R, false)...)
		}
		if b.Op == ir.Or && negated {
			return append(guardsOf(b.L, true), guardsOf(b.R, true)...)
		}
		v, okV := b.L.(*ir.Var)
		c, okC := ir.AffineOf(b.R, p.Consts)
		if !okV || !okC || !c.IsConst() {
			return unknownGuard
		}
		op := b.Op
		if negated {
			switch op {
			case ir.Lt:
				op = ir.Ge
			case ir.Le:
				op = ir.Gt
			case ir.Gt:
				op = ir.Le
			case ir.Ge:
				op = ir.Lt
			case ir.Eq:
				op = ir.Ne
			case ir.Ne:
				op = ir.Eq
			default:
				return unknownGuard
			}
		}
		switch op {
		case ir.Lt, ir.Le, ir.Gt, ir.Ge, ir.Eq, ir.Ne:
			return []Guard{{Var: v.Name, Op: op, C: c.Const}}
		}
		return unknownGuard
	}
	var visit func(ss []ir.Stmt)
	visit = func(ss []ir.Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *ir.For:
				visitExpr(s.Lo)
				visitExpr(s.Hi)
				loops = append(loops, s)
				visit(s.Body)
				loops = loops[:len(loops)-1]
			case *ir.Assign:
				visitExpr(s.RHS)
				for _, ix := range s.LHS.Index {
					visitExpr(ix)
				}
				emit(s.LHS, true)
			case *ir.If:
				visitExpr(s.Cond)
				gs := guardsOf(s.Cond, false)
				guards = append(guards, gs...)
				visit(s.Then)
				guards = guards[:len(guards)-len(gs)]
				ns := guardsOf(s.Cond, true)
				guards = append(guards, ns...)
				visit(s.Else)
				guards = guards[:len(guards)-len(ns)]
			case *ir.ReadInput:
				for _, ix := range s.Target.Index {
					visitExpr(ix)
				}
				emit(s.Target, true)
			case *ir.Print:
				visitExpr(s.Arg)
			}
		}
	}
	visit(n.Body)
	return out
}

// Kind classifies the element live-range shape of an array in a nest.
type Kind int

// Classification results.
const (
	// Unknown: no storage transformation proved safe.
	Unknown Kind = iota
	// ScalarLike: every element is written before any read within a
	// single iteration of the innermost enclosing loop — the array can
	// be contracted to a scalar.
	ScalarLike
	// CarryOne: live ranges span exactly one iteration of the loop at
	// CarryLevel — the array shrinks to a current-value scalar plus a
	// carry buffer over the deeper index dimensions.
	CarryOne
	// ForwardOnly: every read has the store's subscript; reads after
	// the store in an iteration can be forwarded, and reads before it
	// are taken to consume the array's incoming values — the store
	// (writeback) can be eliminated while keeping the loads (Figure 7's
	// res). The classification compares subscripts only. It does not
	// check that each element is written once: a store that leaves an
	// enclosing loop variable out of its subscript (sweep3d's edgeI[j]
	// inside the angle loop) rewrites elements, and a read before it
	// then consumes an earlier iteration's store. Store elimination
	// checks that itself.
	ForwardOnly
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case ScalarLike:
		return "scalar-like"
	case CarryOne:
		return "carry-one"
	case ForwardOnly:
		return "forward-only"
	default:
		return "unknown"
	}
}

// Class is the classification of one array within one nest.
type Class struct {
	Kind       Kind
	Array      string
	Nest       int
	Write      *Use   // the unique write (ScalarLike may have several identical writes; this is the first)
	CarryLevel int    // loop depth (0 = outermost) of the carried loop, for CarryOne
	CarryVar   string // loop variable at CarryLevel
	Reason     string // why classification failed (Kind == Unknown)
}

// Classify determines the live-range shape of the array inside the
// given nest. The result is advisory: transformations re-validate and
// the executor's semantics tests are the final word.
func Classify(p *ir.Program, nestIdx int, array string) Class {
	out := Class{Kind: Unknown, Array: array, Nest: nestIdx}
	if nestIdx < 0 || nestIdx >= len(p.Nests) {
		out.Reason = "nest index out of range"
		return out
	}
	uses := CollectUses(p, p.Nests[nestIdx], array)
	if len(uses) == 0 {
		out.Reason = "array not used in nest"
		return out
	}
	// All uses must sit under the same top-level loop of the nest.
	// Renaming loop variables by position is only meaningful within one
	// iteration space; a write in one sibling loop and a read in the
	// next are different iterations even when the subscripts look alike.
	for _, u := range uses[1:] {
		var a, b *ir.For
		if len(uses[0].Loops) > 0 {
			a = uses[0].Loops[0]
		}
		if len(u.Loops) > 0 {
			b = u.Loops[0]
		}
		if a != b {
			out.Reason = "uses span sibling loops of the nest"
			return out
		}
	}
	var writes, reads []Use
	for _, u := range uses {
		if u.Write {
			writes = append(writes, u)
		} else {
			reads = append(reads, u)
		}
	}
	if len(writes) == 0 {
		out.Reason = "array never written in nest"
		return out
	}

	// All writes must agree on a single affine index vector.
	wIdx, ok := affineIndex(p, writes[0].Ref)
	if !ok {
		out.Reason = "non-affine write subscript"
		return out
	}
	for _, w := range writes[1:] {
		idx, ok2 := affineIndex(p, w.Ref)
		if !ok2 || !indexEqual(wIdx, idx) {
			out.Reason = "multiple writes with different subscripts"
			return out
		}
		if len(w.Loops) != len(writes[0].Loops) {
			out.Reason = "writes at different loop depths"
			return out
		}
	}
	out.Write = &writes[0]

	firstWriteOrder := writes[0].Order
	for _, w := range writes {
		if w.Order < firstWriteOrder {
			firstWriteOrder = w.Order
		}
	}

	// Candidate carry loop: initialized lazily from the first carry read.
	carryLevel := -1
	carryVar := ""
	sameIterOnly := true
	readBeforeWrite := false

	for _, r := range reads {
		rIdx, ok2 := affineIndex(p, r.Ref)
		if !ok2 {
			out.Reason = "non-affine read subscript"
			return out
		}
		if len(rIdx) != len(wIdx) {
			out.Reason = "rank mismatch"
			return out
		}
		// Rename read loop vars to write loop vars by position so the
		// two index vectors are comparable.
		ren := renameMap(r.Loops, writes[0].Loops)
		deltaVar, deltaDist, ok3 := indexDelta(wIdx, rIdx, ren)
		if !ok3 {
			out.Reason = fmt.Sprintf("unanalyzable read %s vs write %s",
				ir.ExprString(r.Ref), ir.ExprString(writes[0].Ref))
			return out
		}
		switch {
		case deltaDist == 0:
			if r.Order < firstWriteOrder {
				readBeforeWrite = true
			}
		case deltaDist == 1 && deltaVar != "":
			sameIterOnly = false
			lvl := loopLevel(writes[0].Loops, deltaVar)
			if lvl == -1 {
				out.Reason = fmt.Sprintf("carry variable %s not an enclosing loop", deltaVar)
				return out
			}
			if carryLevel != -1 && (carryLevel != lvl || carryVar != deltaVar) {
				out.Reason = "carries along multiple loops"
				return out
			}
			carryLevel, carryVar = lvl, deltaVar
			// The carried read at the loop's first iteration would
			// reference an element never written in this nest; require
			// a guard proving the read only happens from the second
			// iteration on.
			f := writes[0].Loops[lvl]
			lo, okLo := ir.AffineOf(f.Lo, p.Consts)
			if !okLo || !lo.IsConst() {
				out.Reason = "carry loop lower bound not constant"
				return out
			}
			guarded := false
			for _, g := range r.Guards {
				if g.ImpliesGE(carryVar, lo.Const+1) {
					guarded = true
				}
			}
			if !guarded {
				out.Reason = fmt.Sprintf("carried read %s not guarded against iteration %s = %d",
					ir.ExprString(r.Ref), carryVar, lo.Const)
				return out
			}
		default:
			out.Reason = fmt.Sprintf("read %s at unsupported distance from write", ir.ExprString(r.Ref))
			return out
		}
	}

	switch {
	case sameIterOnly && !readBeforeWrite:
		out.Kind = ScalarLike
	case sameIterOnly && readBeforeWrite:
		out.Kind = ForwardOnly
	case !sameIterOnly && !readBeforeWrite:
		out.Kind = CarryOne
		out.CarryLevel = carryLevel
		out.CarryVar = carryVar
	default:
		out.Reason = "mixed carry and read-before-write uses"
	}
	return out
}

// Delta compares a read use against a write use of the same array and
// returns the carried loop variable (write's naming) and iteration
// distance: ("", 0) for identical indices, (v, 1) when the read
// consumes the previous iteration of loop v. ok is false for
// unanalyzable pairs. Exported for the transformation passes, which
// must re-derive each read's role while rewriting.
func Delta(p *ir.Program, write, read Use) (deltaVar string, dist int64, ok bool) {
	wIdx, okW := affineIndex(p, write.Ref)
	rIdx, okR := affineIndex(p, read.Ref)
	if !okW || !okR || len(wIdx) != len(rIdx) {
		return "", 0, false
	}
	return indexDelta(wIdx, rIdx, renameMap(read.Loops, write.Loops))
}

// affineIndex extracts the affine form of every subscript.
func affineIndex(p *ir.Program, r *ir.Ref) ([]*ir.Affine, bool) {
	out := make([]*ir.Affine, len(r.Index))
	for i, ix := range r.Index {
		a, ok := ir.AffineOf(ix, p.Consts)
		if !ok {
			return nil, false
		}
		out[i] = a
	}
	return out, true
}

func indexEqual(a, b []*ir.Affine) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// renameMap maps the read's loop variables onto the write's by nesting
// position.
func renameMap(from, to []*ir.For) map[string]string {
	m := map[string]string{}
	for i := 0; i < len(from) && i < len(to); i++ {
		m[from[i].Var] = to[i].Var
	}
	return m
}

// indexDelta compares a write index vector against a read index vector
// and reports the single variable along which they differ by a constant
// distance: deltaDist = write − read per the carried variable (1 means
// the read consumes the previous iteration's value). A zero vector
// returns ("", 0, true). Unanalyzable shapes return ok == false.
func indexDelta(w, r []*ir.Affine, ren map[string]string) (deltaVar string, deltaDist int64, ok bool) {
	for k := range w {
		rr := ir.NewAffine(r[k].Const)
		for v, c := range r[k].Coeffs {
			if nv, has := ren[v]; has {
				rr.Coeffs[nv] += c
			} else {
				rr.Coeffs[v] += c
			}
		}
		d := w[k].Sub(rr)
		if !d.IsConst() {
			return "", 0, false
		}
		if d.Const == 0 {
			continue
		}
		// The differing dimension must be driven by exactly one loop var
		// with unit coefficient, so the constant difference is an
		// iteration distance.
		vars := w[k].Vars()
		if len(vars) != 1 || w[k].Coeff(vars[0]) != 1 {
			return "", 0, false
		}
		if deltaVar != "" && deltaVar != vars[0] {
			return "", 0, false
		}
		if deltaVar != "" && deltaDist != d.Const {
			return "", 0, false
		}
		deltaVar, deltaDist = vars[0], d.Const
	}
	return deltaVar, deltaDist, true
}

func loopLevel(loops []*ir.For, v string) int {
	for i, f := range loops {
		if f.Var == v {
			return i
		}
	}
	return -1
}
