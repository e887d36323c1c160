// Package verify provides the optimizer pipeline's correctness gates:
// a deep structural IR verifier that goes beyond Program.Validate
// (static subscript bounds under loop ranges and guard refinement),
// and a differential-execution checker that runs the original and
// transformed programs on the compiled engine over Vectors
// deterministic input vectors and compares their observable results
// within a tolerance.
//
// Both checkers are conservative in opposite directions. The
// structural verifier only reports a violation when the offending
// subscript range is statically known — an unknown range (a subscript
// through a scalar, for instance) is accepted and left to the dynamic
// bounds checks of the execution engines. The differential checker compares
// the program's observability boundary — printed values, in order, and
// final values of scalars present in both programs — because array
// contents may legally change under storage reduction and store
// elimination.
package verify

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// Mode selects how much verification the optimizer pipeline performs
// after each transformation checkpoint.
type Mode int

const (
	// ModeOff performs only the IR's basic Validate check.
	ModeOff Mode = iota
	// ModeStructural adds the deep structural verifier: static
	// subscript bounds under loop ranges, guard-aware refinement, and
	// scoping checks.
	ModeStructural
	// ModeDifferential additionally executes each checkpointed program
	// and compares its results against the unoptimized original.
	ModeDifferential
)

// String returns the flag spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeStructural:
		return "structural"
	case ModeDifferential:
		return "differential"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses a mode name as spelled on command-line flags.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "off", "none", "":
		return ModeOff, nil
	case "structural", "struct":
		return ModeStructural, nil
	case "differential", "diff":
		return ModeDifferential, nil
	}
	return ModeOff, fmt.Errorf("verify: unknown mode %q (want off, structural or differential)", s)
}

// Structural checks deep well-formedness of a program. It first runs
// Program.Validate (unique names, resolvable references, rank-matching
// subscripts, loop-variable scoping), then an interval analysis over
// every array subscript: loop variables take the range of their
// statically evaluable bounds, If guards of the form "var cmp expr"
// narrow that range in each branch, and any subscript whose resulting
// range is fully known but falls outside the array's extent is an
// error. Subscripts with statically unknown ranges are accepted.
func Structural(p *ir.Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c := &checker{prog: p}
	for _, n := range p.Nests {
		if err := c.stmts(n.Body, env{}, n.Label); err != nil {
			return err
		}
	}
	return nil
}

// iv is an inclusive integer interval; known is false when nothing is
// statically known about the value.
type iv struct {
	lo, hi int64
	known  bool
}

func exact(v int64) iv { return iv{lo: v, hi: v, known: true} }

var unknown = iv{}

// env maps loop variables in scope to their intervals. Variables bound
// by a For are always present, with known=false when their bounds are
// not statically evaluable.
type env map[string]iv

func (e env) clone() env {
	out := make(env, len(e)+1)
	for k, v := range e {
		out[k] = v
	}
	return out
}

type checker struct {
	prog *ir.Program
}

func (c *checker) stmts(ss []ir.Stmt, vars env, where string) error {
	for _, s := range ss {
		switch s := s.(type) {
		case *ir.For:
			if err := c.expr(s.Lo, vars, where); err != nil {
				return err
			}
			if err := c.expr(s.Hi, vars, where); err != nil {
				return err
			}
			lo := c.rng(s.Lo, vars)
			hi := c.rng(s.Hi, vars)
			if lo.known && hi.known && lo.lo > hi.hi {
				continue // statically empty loop: the body never runs
			}
			inner := vars.clone()
			if lo.known && hi.known {
				last := hi.hi
				// A stepped loop stops at the last lo + k*step not
				// exceeding hi; with an exact lower bound that value is
				// usually tighter than hi itself.
				if step := int64(s.StepOr1()); step > 1 && lo.lo == lo.hi && hi.hi >= lo.lo {
					last = lo.lo + (hi.hi-lo.lo)/step*step
				}
				inner[s.Var] = iv{lo: lo.lo, hi: last, known: true}
			} else {
				inner[s.Var] = unknown
			}
			if err := c.stmts(s.Body, inner, where); err != nil {
				return err
			}
		case *ir.Assign:
			if err := c.ref(s.LHS, vars, where); err != nil {
				return err
			}
			if err := c.expr(s.RHS, vars, where); err != nil {
				return err
			}
		case *ir.If:
			if err := c.expr(s.Cond, vars, where); err != nil {
				return err
			}
			if thenEnv, dead := c.refine(s.Cond, vars, false); !dead {
				if err := c.stmts(s.Then, thenEnv, where); err != nil {
					return err
				}
			}
			if elseEnv, dead := c.refine(s.Cond, vars, true); !dead {
				if err := c.stmts(s.Else, elseEnv, where); err != nil {
					return err
				}
			}
		case *ir.ReadInput:
			if err := c.ref(s.Target, vars, where); err != nil {
				return err
			}
		case *ir.Print:
			if err := c.expr(s.Arg, vars, where); err != nil {
				return err
			}
		}
	}
	return nil
}

// expr walks an expression checking every array reference inside it.
func (c *checker) expr(e ir.Expr, vars env, where string) error {
	switch e := e.(type) {
	case *ir.Ref:
		return c.ref(e, vars, where)
	case *ir.Bin:
		if err := c.expr(e.L, vars, where); err != nil {
			return err
		}
		return c.expr(e.R, vars, where)
	case *ir.Neg:
		return c.expr(e.X, vars, where)
	case *ir.Call:
		for _, a := range e.Args {
			if err := c.expr(a, vars, where); err != nil {
				return err
			}
		}
	}
	return nil
}

// ref bounds-checks a single array reference: any subscript whose
// interval is fully known must lie within the array's extent.
func (c *checker) ref(r *ir.Ref, vars env, where string) error {
	if r == nil || r.IsScalar() {
		return nil
	}
	a := c.prog.ArrayByName(r.Name)
	if a == nil {
		return nil // Validate already rejected undeclared arrays
	}
	for k, ix := range r.Index {
		if err := c.expr(ix, vars, where); err != nil {
			return err
		}
		rng := c.rng(ix, vars)
		if !rng.known {
			continue
		}
		if rng.lo < 0 || rng.hi >= int64(a.Dims[k]) {
			return fmt.Errorf("verify: %s: subscript %d of %s ranges over [%d,%d], outside extent [0,%d)",
				where, k, ir.ExprString(r), rng.lo, rng.hi, a.Dims[k])
		}
	}
	return nil
}

// rangeCap bounds interval endpoints: anything larger degrades to
// unknown rather than risking overflow in interval arithmetic.
const rangeCap = int64(1) << 40

// rng computes the interval of an integer-context expression, or
// unknown when it is not statically evaluable.
func (c *checker) rng(e ir.Expr, vars env) iv {
	switch e := e.(type) {
	case *ir.Num:
		i := int64(e.Val)
		if float64(i) != e.Val {
			return unknown
		}
		return exact(i)
	case *ir.Var:
		if v, ok := vars[e.Name]; ok {
			return v
		}
		if v, ok := c.prog.Consts[e.Name]; ok {
			return exact(v)
		}
		return unknown // scalar: value not statically tracked
	case *ir.Neg:
		v := c.rng(e.X, vars)
		if !v.known {
			return unknown
		}
		return iv{lo: -v.hi, hi: -v.lo, known: true}
	case *ir.Bin:
		l := c.rng(e.L, vars)
		r := c.rng(e.R, vars)
		if !l.known || !r.known {
			return unknown
		}
		var res iv
		switch e.Op {
		case ir.Add:
			res = iv{lo: l.lo + r.lo, hi: l.hi + r.hi, known: true}
		case ir.Sub:
			res = iv{lo: l.lo - r.hi, hi: l.hi - r.lo, known: true}
		case ir.Mul:
			ps := [4]int64{l.lo * r.lo, l.lo * r.hi, l.hi * r.lo, l.hi * r.hi}
			res = iv{lo: ps[0], hi: ps[0], known: true}
			for _, p := range ps[1:] {
				if p < res.lo {
					res.lo = p
				}
				if p > res.hi {
					res.hi = p
				}
			}
		case ir.Div:
			if r.lo != r.hi || r.lo == 0 {
				return unknown
			}
			a, b := l.lo/r.lo, l.hi/r.lo
			if a > b {
				a, b = b, a
			}
			res = iv{lo: a, hi: b, known: true}
		default:
			return unknown
		}
		if res.lo < -rangeCap || res.hi > rangeCap {
			return unknown
		}
		return res
	case *ir.Call:
		if e.Fn == "mod" && len(e.Args) == 2 {
			l := c.rng(e.Args[0], vars)
			r := c.rng(e.Args[1], vars)
			if l.known && r.known && r.lo == r.hi && r.lo > 0 && l.lo >= 0 {
				hi := r.lo - 1
				if l.hi < hi {
					hi = l.hi
				}
				return iv{lo: 0, hi: hi, known: true}
			}
		}
		return unknown
	}
	return unknown
}

// refine returns a copy of vars narrowed by the guard condition (or
// its negation), and whether the guarded branch is statically
// unreachable under the narrowed ranges.
func (c *checker) refine(cond ir.Expr, vars env, negate bool) (env, bool) {
	out := vars.clone()
	dead := c.applyCond(cond, out, negate)
	return out, dead
}

// applyCond narrows loop-variable intervals in vars according to cond
// (negated when negate is set). It returns true when the narrowing
// proves the branch unreachable. Unrecognized condition shapes narrow
// nothing.
func (c *checker) applyCond(cond ir.Expr, vars env, negate bool) bool {
	b, ok := cond.(*ir.Bin)
	if !ok {
		return false
	}
	op := b.Op
	if negate {
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
		case ir.Or: // !(a || b) == !a && !b
			d1 := c.applyCond(b.L, vars, true)
			d2 := c.applyCond(b.R, vars, true)
			return d1 || d2
		default:
			return false
		}
	} else if op == ir.And {
		d1 := c.applyCond(b.L, vars, false)
		d2 := c.applyCond(b.R, vars, false)
		return d1 || d2
	}
	if lv, ok := b.L.(*ir.Var); ok {
		if _, tracked := vars[lv.Name]; tracked {
			return applyBound(vars, lv.Name, op, c.rng(b.R, vars))
		}
	}
	if rv, ok := b.R.(*ir.Var); ok {
		if _, tracked := vars[rv.Name]; tracked {
			return applyBound(vars, rv.Name, flip(op), c.rng(b.L, vars))
		}
	}
	return false
}

// flip mirrors a comparison so the tracked variable sits on the left.
func flip(op ir.Op) ir.Op {
	switch op {
	case ir.Lt:
		return ir.Gt
	case ir.Le:
		return ir.Ge
	case ir.Gt:
		return ir.Lt
	case ir.Ge:
		return ir.Le
	}
	return op
}

// applyBound narrows vars[name] under "name op bound"; it returns true
// when the narrowed interval is empty (branch unreachable).
func applyBound(vars env, name string, op ir.Op, bound iv) bool {
	if !bound.known {
		return false
	}
	cur := vars[name]
	lo, hi, known := cur.lo, cur.hi, cur.known
	switch op {
	case ir.Lt:
		if !known {
			return false
		}
		if v := bound.hi - 1; v < hi {
			hi = v
		}
	case ir.Le:
		if !known {
			return false
		}
		if bound.hi < hi {
			hi = bound.hi
		}
	case ir.Gt:
		if !known {
			return false
		}
		if v := bound.lo + 1; v > lo {
			lo = v
		}
	case ir.Ge:
		if !known {
			return false
		}
		if bound.lo > lo {
			lo = bound.lo
		}
	case ir.Eq:
		if !known {
			// The guard pins an otherwise-unknown variable only when
			// the bound is a single value.
			if bound.lo != bound.hi {
				return false
			}
			lo, hi, known = bound.lo, bound.hi, true
			break
		}
		if bound.lo > lo {
			lo = bound.lo
		}
		if bound.hi < hi {
			hi = bound.hi
		}
	case ir.Ne:
		if !known || bound.lo != bound.hi {
			return false
		}
		if bound.lo == lo {
			lo++
		} else if bound.lo == hi {
			hi--
		}
	default:
		return false
	}
	vars[name] = iv{lo: lo, hi: hi, known: true}
	return lo > hi
}
