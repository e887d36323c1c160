// Package exec interprets IR programs against the simulated memory
// hierarchy, producing both computed values (so transformed programs can
// be checked for semantic equivalence against the originals) and the
// event counts (flops, loads/stores, misses, writebacks) from which
// program balance is derived.
//
// Execution model: arrays live in a flat simulated byte address space in
// column-major order; every array-element read issues a LoadSite and
// every array-element write a StoreSite to the hierarchy. Scalars and loop
// variables are register-resident and free. Floating-point add, sub,
// mul, div and intrinsic calls count flops; comparisons, logical
// operators and integer index arithmetic are free.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Layout places a program's arrays in the simulated byte address space
// the way both engines run them: consecutive in declaration order, each
// rounded up to a 128-byte alignment (at least as large as any modelled
// cache line) plus one guard line. It returns each array's base address
// and the end of the layout. Observers that map addresses back to arrays
// (bounds.FootprintRecorder) use it too, so their attribution is exact.
func Layout(arrays []*ir.Array) (bases []int64, end int64) {
	const align = 128
	bases = make([]int64, len(arrays))
	for i, a := range arrays {
		bases[i] = end
		end += a.Bytes()
		end = (end + align - 1) &^ (align - 1)
		end += align // one guard line between arrays
	}
	return bases, end
}

// ErrCanceled is returned (wrapped) when a run is abandoned because its
// context was canceled or its deadline expired. Callers detect it with
// errors.Is.
var ErrCanceled = errors.New("exec: run canceled")

// ErrStepBudget is returned (wrapped) when a run exceeds its
// Limits.MaxSteps budget. It is distinct from ErrCanceled: the budget
// bounds total work regardless of wall-clock deadlines.
var ErrStepBudget = errors.New("exec: step budget exhausted")

// pollMask sets how often the interpreter loops poll the context: every
// pollMask+1 loop-body iterations. 1024 innermost iterations are
// microseconds of work, so cancellation is prompt without measurable
// polling overhead.
const pollMask = 1023

// Limits bounds one execution. The zero value imposes no limit.
type Limits struct {
	// MaxSteps caps the number of loop-body iterations executed across
	// the whole run (0 = unlimited). One step is one iteration of one
	// `for` statement, so deeply nested loops consume budget at their
	// innermost rate.
	MaxSteps int64
}

// Result carries the values computed by a program run. Prints, Scalars
// and Flops come from either engine. The final arrays come only from
// the interpreter, the test oracle: a compiled run's arrays live on a
// pooled slab that goes back to the pool when the run ends.
type Result struct {
	Prints  []float64          // values printed, in order
	Scalars map[string]float64 // final scalar values
	arrays  map[string][]float64
	Flops   int64
}

// Array returns the final contents of the named array (nil if absent).
// Only an interpreter run (Run, RunCtx) has them: on a compiled run's
// Result it returns nil.
func (r *Result) Array(name string) []float64 { return r.arrays[name] }

// Checksum folds all printed values into one number.
func (r *Result) Checksum() float64 {
	var s float64
	for i, v := range r.Prints {
		s += v * float64(i+1)
	}
	return s
}

// Machine observes a run: every array access, tagged with the
// attribution site of the IR reference that issued it (ir.SiteID as a
// raw uint32; 0 for references AssignSites has not visited), the flops,
// and the end of the run. *sim.Hierarchy implements it. A nil Machine
// runs the program functionally with no traffic accounting (useful for
// fast semantic checks).
type Machine interface {
	LoadSite(addr int64, size int, site uint32)
	StoreSite(addr int64, size int, site uint32)
	AddFlops(n int64)
	Flush()
}

var (
	_ Machine = (*sim.Hierarchy)(nil)
	_ Machine = (*sim.Recorder)(nil)
)

// Run executes the program. The hierarchy may be nil for a functional
// run. Dirty cache lines are flushed at program end so writeback counts
// cover the whole execution, matching the paper's accounting.
func Run(p *ir.Program, h Machine) (*Result, error) {
	return RunCtx(context.Background(), p, h, Limits{})
}

// RunCtx is Run with cancellation and a step budget: the interpreter
// polls ctx between loop iterations and abandons the run with an error
// wrapping ErrCanceled once ctx is done, or ErrStepBudget once
// lim.MaxSteps loop iterations have executed. A nil ctx means
// context.Background().
func RunCtx(ctx context.Context, p *ir.Program, h Machine, lim Limits) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ctx, err := startRun(ctx)
	if err != nil {
		return nil, err
	}
	ctx, span := trace.StartSpan(ctx, "exec.run", trace.String("program", p.Name),
		trace.String("engine", "interp"))
	e := &interp{prog: p, mach: h, ctx: ctx, lim: lim,
		res: &Result{Scalars: map[string]float64{}, arrays: map[string][]float64{}}}
	e.layout()
	for _, n := range p.Nests {
		if err := e.stmts(n.Body); err != nil {
			span.End(trace.Int("steps", e.steps), trace.String("error", err.Error()))
			return nil, fmt.Errorf("exec: nest %s: %w", n.Label, err)
		}
	}
	if h != nil {
		h.Flush()
	}
	for name, slot := range e.scalars {
		e.res.Scalars[name] = *slot
	}
	for name, arr := range e.arrays {
		e.res.arrays[name] = arr.data
	}
	e.res.Flops = e.flops
	span.End(trace.Int("steps", e.steps), trace.Int("flops", e.flops))
	return e.res, nil
}

// startRun is the prologue every execution entry point shares: a nil
// ctx means context.Background(), and an injected exec.cancel fault ends
// the call before anything runs.
func startRun(ctx context.Context) (context.Context, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if faults.Should(ctx, faults.ExecCancel) {
		return nil, fmt.Errorf("%w: injected %s", ErrCanceled, faults.ExecCancel)
	}
	return ctx, nil
}

type arrayState struct {
	decl *ir.Array
	base int64
	data []float64
	// stride[k] is the element distance between consecutive values of
	// subscript k (column-major: stride[0] == 1).
	stride []int64
}

type interp struct {
	prog     *ir.Program
	mach     Machine
	ctx      context.Context
	lim      Limits
	steps    int64 // loop-body iterations executed
	res      *Result
	arrays   map[string]*arrayState
	scalars  map[string]*float64
	ivars    map[string]*int64 // loop variables
	flops    int64
	inputSeq int64 // position in the sequential input stream
}

// step accounts one loop-body iteration, enforcing the step budget and
// periodically polling the context.
func (e *interp) step() error {
	e.steps++
	if e.lim.MaxSteps > 0 && e.steps > e.lim.MaxSteps {
		return fmt.Errorf("%w (limit %d iterations)", ErrStepBudget, e.lim.MaxSteps)
	}
	if e.steps&pollMask == 0 {
		if err := e.ctx.Err(); err != nil {
			return fmt.Errorf("%w after %d iterations: %v", ErrCanceled, e.steps, err)
		}
	}
	return nil
}

// layout assigns base addresses and allocates array storage.
func (e *interp) layout() {
	e.arrays = map[string]*arrayState{}
	e.scalars = map[string]*float64{}
	e.ivars = map[string]*int64{}
	bases, _ := Layout(e.prog.Arrays)
	for i, a := range e.prog.Arrays {
		st := &arrayState{decl: a, base: bases[i], data: make([]float64, a.Size())}
		// Column-major strides: stride[0]=1, stride[k]=stride[k-1]*dim[k-1].
		s := int64(1)
		for _, d := range a.Dims {
			st.stride = append(st.stride, s)
			s *= int64(d)
		}
		e.arrays[a.Name] = st
	}
	for _, s := range e.prog.Scalars {
		v := s.Init
		e.scalars[s.Name] = &v
	}
}

// addr computes the byte address and element offset of a reference.
func (e *interp) addr(r *ir.Ref) (int64, *arrayState, int64, error) {
	st := e.arrays[r.Name]
	if st == nil {
		return 0, nil, 0, fmt.Errorf("unknown array %q", r.Name)
	}
	var off int64
	for k, ixe := range r.Index {
		ix, err := e.evalInt(ixe)
		if err != nil {
			return 0, nil, 0, err
		}
		if ix < 0 || ix >= int64(st.decl.Dims[k]) {
			return 0, nil, 0, fmt.Errorf("index %d out of bounds [0,%d) in %s", ix, st.decl.Dims[k], ir.ExprString(r))
		}
		off += ix * st.stride[k]
	}
	return st.base + off*ir.ElemSize, st, off, nil
}

func (e *interp) loadRef(r *ir.Ref) (float64, error) {
	if r.IsScalar() {
		if p, ok := e.scalars[r.Name]; ok {
			return *p, nil
		}
		return 0, fmt.Errorf("unknown scalar %q", r.Name)
	}
	a, st, off, err := e.addr(r)
	if err != nil {
		return 0, err
	}
	if e.mach != nil {
		e.mach.LoadSite(a, ir.ElemSize, uint32(r.Site))
	}
	return st.data[off], nil
}

func (e *interp) storeRef(r *ir.Ref, v float64) error {
	if r.IsScalar() {
		if p, ok := e.scalars[r.Name]; ok {
			*p = v
			return nil
		}
		return fmt.Errorf("unknown scalar %q", r.Name)
	}
	a, st, off, err := e.addr(r)
	if err != nil {
		return err
	}
	if e.mach != nil {
		e.mach.StoreSite(a, ir.ElemSize, uint32(r.Site))
	}
	st.data[off] = v
	return nil
}

// evalInt evaluates an index/bound expression in integer arithmetic.
func (e *interp) evalInt(x ir.Expr) (int64, error) {
	switch x := x.(type) {
	case *ir.Num:
		i := int64(x.Val)
		if float64(i) != x.Val {
			return 0, fmt.Errorf("non-integer literal %v in integer context", x.Val)
		}
		return i, nil
	case *ir.Var:
		if p, ok := e.ivars[x.Name]; ok {
			return *p, nil
		}
		if v, ok := e.prog.Consts[x.Name]; ok {
			return v, nil
		}
		if p, ok := e.scalars[x.Name]; ok {
			i := int64(*p)
			if float64(i) != *p {
				return 0, fmt.Errorf("scalar %q holds non-integer %v in integer context", x.Name, *p)
			}
			return i, nil
		}
		return 0, fmt.Errorf("unknown variable %q in integer context", x.Name)
	case *ir.Neg:
		v, err := e.evalInt(x.X)
		return -v, err
	case *ir.Bin:
		l, err := e.evalInt(x.L)
		if err != nil {
			return 0, err
		}
		r, err := e.evalInt(x.R)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case ir.Add:
			return l + r, nil
		case ir.Sub:
			return l - r, nil
		case ir.Mul:
			return l * r, nil
		case ir.Div:
			if r == 0 {
				return 0, fmt.Errorf("integer division by zero")
			}
			return l / r, nil
		default:
			return 0, fmt.Errorf("operator %s not allowed in integer context", x.Op)
		}
	case *ir.Call:
		if x.Fn == "mod" && len(x.Args) == 2 {
			l, err := e.evalInt(x.Args[0])
			if err != nil {
				return 0, err
			}
			r, err := e.evalInt(x.Args[1])
			if err != nil {
				return 0, err
			}
			if r == 0 {
				return 0, fmt.Errorf("mod by zero")
			}
			return l % r, nil
		}
		return 0, fmt.Errorf("call %s not allowed in integer context", x.Fn)
	default:
		return 0, fmt.Errorf("expression %s not allowed in integer context", ir.ExprString(x))
	}
}

// eval evaluates a floating-point expression, counting flops and
// issuing memory traffic for array loads.
func (e *interp) eval(x ir.Expr) (float64, error) {
	switch x := x.(type) {
	case *ir.Num:
		return x.Val, nil
	case *ir.Var:
		if p, ok := e.scalars[x.Name]; ok {
			return *p, nil
		}
		if p, ok := e.ivars[x.Name]; ok {
			return float64(*p), nil
		}
		if v, ok := e.prog.Consts[x.Name]; ok {
			return float64(v), nil
		}
		return 0, fmt.Errorf("unknown variable %q", x.Name)
	case *ir.Ref:
		return e.loadRef(x)
	case *ir.Neg:
		v, err := e.eval(x.X)
		return -v, err
	case *ir.Bin:
		l, err := e.eval(x.L)
		if err != nil {
			return 0, err
		}
		// Short-circuit logical operators.
		switch x.Op {
		case ir.And:
			if l == 0 {
				return 0, nil
			}
			r, err := e.eval(x.R)
			if err != nil {
				return 0, err
			}
			return b2f(r != 0), nil
		case ir.Or:
			if l != 0 {
				return 1, nil
			}
			r, err := e.eval(x.R)
			if err != nil {
				return 0, err
			}
			return b2f(r != 0), nil
		}
		r, err := e.eval(x.R)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case ir.Add:
			e.flop(1)
			return l + r, nil
		case ir.Sub:
			e.flop(1)
			return l - r, nil
		case ir.Mul:
			e.flop(1)
			return l * r, nil
		case ir.Div:
			e.flop(1)
			return l / r, nil
		case ir.Lt:
			return b2f(l < r), nil
		case ir.Le:
			return b2f(l <= r), nil
		case ir.Gt:
			return b2f(l > r), nil
		case ir.Ge:
			return b2f(l >= r), nil
		case ir.Eq:
			return b2f(l == r), nil
		case ir.Ne:
			return b2f(l != r), nil
		}
		return 0, fmt.Errorf("unknown operator %v", x.Op)
	case *ir.Call:
		return e.call(x)
	default:
		return 0, fmt.Errorf("unknown expression %T", x)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (e *interp) flop(n int64) {
	e.flops += n
	if e.mach != nil {
		e.mach.AddFlops(n)
	}
}

// call evaluates an intrinsic. f and g are the paper's opaque example
// functions (Figure 6); both are deterministic arithmetic combinations.
func (e *interp) call(c *ir.Call) (float64, error) {
	args := make([]float64, len(c.Args))
	for i, a := range c.Args {
		v, err := e.eval(a)
		if err != nil {
			return 0, err
		}
		args[i] = v
	}
	// RunCtx has validated the program, so each call has its
	// intrinsic's argument count.
	switch c.Fn {
	case "f":
		e.flop(2)
		return 0.5*args[0] + 0.25*args[1], nil
	case "g":
		e.flop(2)
		return args[0]*0.75 + args[1], nil
	case "sqrt":
		e.flop(1)
		return math.Sqrt(math.Abs(args[0])), nil
	case "sin":
		e.flop(1)
		return math.Sin(args[0]), nil
	case "cos":
		e.flop(1)
		return math.Cos(args[0]), nil
	case "abs":
		return math.Abs(args[0]), nil
	case "min":
		return math.Min(args[0], args[1]), nil
	case "max":
		return math.Max(args[0], args[1]), nil
	case "mod":
		if args[1] == 0 {
			return 0, fmt.Errorf("mod by zero")
		}
		return math.Mod(args[0], args[1]), nil
	default: // unreachable: Validate rejects unknown intrinsics
		return 0, fmt.Errorf("unknown intrinsic %q", c.Fn)
	}
}

// input returns the deterministic pseudo-input value for an address, so
// that original and transformed programs reading the "same file" see
// the same data.
func inputValue(seq int64) float64 {
	h := uint64(seq)*0x9E3779B97F4A7C15 + 0x165667B19E3779F9
	h ^= h >> 29
	return float64(h%10000)/10000.0 - 0.5
}

func (e *interp) stmts(ss []ir.Stmt) error {
	for _, s := range ss {
		if err := e.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (e *interp) stmt(s ir.Stmt) error {
	switch s := s.(type) {
	case *ir.For:
		lo, err := e.evalInt(s.Lo)
		if err != nil {
			return err
		}
		hi, err := e.evalInt(s.Hi)
		if err != nil {
			return err
		}
		step := int64(s.StepOr1())
		var iv int64
		prev, shadowed := e.ivars[s.Var]
		e.ivars[s.Var] = &iv
		for iv = lo; iv <= hi; iv += step {
			if err := e.step(); err != nil {
				return err
			}
			if err := e.stmts(s.Body); err != nil {
				return err
			}
		}
		if shadowed {
			e.ivars[s.Var] = prev
		} else {
			delete(e.ivars, s.Var)
		}
		return nil
	case *ir.Assign:
		v, err := e.eval(s.RHS)
		if err != nil {
			return err
		}
		return e.storeRef(s.LHS, v)
	case *ir.If:
		c, err := e.eval(s.Cond)
		if err != nil {
			return err
		}
		if c != 0 {
			return e.stmts(s.Then)
		}
		return e.stmts(s.Else)
	case *ir.ReadInput:
		// Input is a sequential stream: the n-th read statement executed
		// receives the n-th input value, regardless of where it is
		// stored. Transformations preserve read order, so original and
		// optimized programs see identical data even when the optimized
		// program has replaced the backing array with a buffer or scalar.
		v := inputValue(e.inputSeq)
		e.inputSeq++
		return e.storeRef(s.Target, v)
	case *ir.Print:
		v, err := e.eval(s.Arg)
		if err != nil {
			return err
		}
		e.res.Prints = append(e.res.Prints, v)
		return nil
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}
