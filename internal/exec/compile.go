package exec

import (
	"context"
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/trace"
)

// Closure compiler: the production execution engine. It compiles a
// program to a tree of Go closures with all name resolution done once,
// ahead of time — array bases and strides, scalar slots and loop
// variable slots become direct pointers. It runs several times faster
// than the tree-walking interpreter (which re-resolves names per
// access), making paper-scale simulations and differential verification
// cheap. The interpreter stays as an independent implementation of the
// executor semantics: the test suite runs both engines on the same
// programs and requires identical results, identical traffic and
// identical error text.

// Compiled is a program prepared for repeated execution.
type Compiled struct {
	prog *ir.Program
	run  func(env *cenv) error
	// Slot layouts, rebuilt per Run.
	arrayOrder []*ir.Array
}

// cenv is the mutable state of one compiled execution.
type cenv struct {
	mach     Machine
	smach    SiteMachine // non-nil when mach accepts attribution sites
	ctx      context.Context
	lim      Limits
	steps    int64
	arrays   []carr
	scalars  []float64
	ivars    []int64
	res      *Result
	flops    int64
	inputSeq int64
}

// step mirrors interp.step for the compiled engine: one loop-body
// iteration of budget accounting plus periodic context polling.
func (env *cenv) step() error {
	env.steps++
	if env.lim.MaxSteps > 0 && env.steps > env.lim.MaxSteps {
		return fmt.Errorf("%w (limit %d iterations)", ErrStepBudget, env.lim.MaxSteps)
	}
	if env.steps&pollMask == 0 {
		if err := env.ctx.Err(); err != nil {
			return fmt.Errorf("%w after %d iterations: %v", ErrCanceled, env.steps, err)
		}
	}
	return nil
}

type carr struct {
	base   int64
	data   []float64
	dims   []int
	stride []int64
}

// Compile validates and compiles the program.
func Compile(p *ir.Program) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &compiler{
		prog:     p,
		arrayIdx: map[string]int{},
		scalIdx:  map[string]int{},
		ivarIdx:  map[string]int{},
	}
	for i, a := range p.Arrays {
		c.arrayIdx[a.Name] = i
	}
	for i, s := range p.Scalars {
		c.scalIdx[s.Name] = i
	}
	var nests []func(env *cenv) error
	for _, n := range p.Nests {
		label := n.Label
		body, err := c.stmts(n.Body)
		if err != nil {
			return nil, fmt.Errorf("exec: compile nest %s: %w", n.Label, err)
		}
		nests = append(nests, func(env *cenv) error {
			if err := body(env); err != nil {
				return fmt.Errorf("exec: nest %s: %w", label, err)
			}
			return nil
		})
	}
	run := func(env *cenv) error {
		for _, n := range nests {
			if err := n(env); err != nil {
				return err
			}
		}
		return nil
	}
	return &Compiled{prog: p, run: run, arrayOrder: p.Arrays}, nil
}

// Run executes the compiled program against a (possibly nil) machine.
func (cp *Compiled) Run(h Machine) (*Result, error) {
	return cp.RunCtx(context.Background(), h, Limits{})
}

// RunCtx is Run with cancellation and a step budget, with the same
// semantics as the package-level RunCtx. Compiled programs are
// stateless between runs, so one Compiled may serve many concurrent
// RunCtx calls, each with its own context.
func (cp *Compiled) RunCtx(ctx context.Context, h Machine, lim Limits) (*Result, error) {
	ctx, err := startRun(ctx)
	if err != nil {
		return nil, err
	}
	env := &cenv{
		mach:    h,
		smach:   siteMachine(h),
		lim:     lim,
		arrays:  cp.layout(),
		scalars: make([]float64, len(cp.prog.Scalars)),
		ivars:   make([]int64, maxIvars(cp.prog)),
	}
	if err := cp.runOnce(ctx, env); err != nil {
		return nil, err
	}
	env.res.arrays = make(map[string][]float64, len(cp.arrayOrder))
	for i, a := range cp.arrayOrder {
		env.res.arrays[a.Name] = env.arrays[i].data
	}
	return env.res, nil
}

// runOnce executes the program once in env, whose arrays and loop
// variable slots the caller has prepared, under an exec.run span that
// also carries attrs. It resets the scalars to their initial values,
// flushes env.mach when there is one, and leaves the final scalars and
// flops in env.res.
func (cp *Compiled) runOnce(ctx context.Context, env *cenv, attrs ...trace.Attr) error {
	ctx, span := trace.StartSpan(ctx, "exec.run", append([]trace.Attr{trace.String("program", cp.prog.Name),
		trace.String("engine", "compiled")}, attrs...)...)
	env.ctx = ctx
	for i, s := range cp.prog.Scalars {
		env.scalars[i] = s.Init
	}
	env.res = &Result{Scalars: make(map[string]float64, len(env.scalars))}
	if err := cp.run(env); err != nil {
		span.End(trace.Int("steps", env.steps), trace.String("error", err.Error()))
		return err
	}
	if env.mach != nil {
		env.mach.Flush()
	}
	for i, s := range cp.prog.Scalars {
		env.res.Scalars[s.Name] = env.scalars[i]
	}
	env.res.Flops = env.flops
	span.End(trace.Int("steps", env.steps), trace.Int("flops", env.flops))
	return nil
}

// layout assigns every array its base address, strides and zero-filled
// storage.
func (cp *Compiled) layout() []carr {
	arrays := make([]carr, 0, len(cp.arrayOrder))
	var next int64
	for _, a := range cp.arrayOrder {
		ca := carr{base: next, data: make([]float64, a.Size()), dims: a.Dims}
		s := int64(1)
		for _, d := range a.Dims {
			ca.stride = append(ca.stride, s)
			s *= int64(d)
		}
		arrays = append(arrays, ca)
		next += a.Bytes()
		next = (next + align - 1) &^ (align - 1)
		next += align
	}
	return arrays
}

// RunVectors runs the program functionally — no machine — once per
// input vector 0, 1, ..., n-1, each under its own exec.run span and its
// own lim.MaxSteps budget. Vector 0 is the plain run: zero-filled
// arrays and the seeded input stream. Every later vector v starts each
// array element at a value seeded from the array's name and the
// element's column-major offset, and reads the input stream from a
// position shifted by v. Names, not memory layout, pick the values, so
// two programs that declare the same array see the same initial
// contents.
//
// The runs share one set of array buffers, refilled between vectors, so
// each Result carries prints, scalars and flops but no arrays. The
// first failing vector ends the call: RunVectors returns the results of
// the vectors before it and an error naming it.
func (cp *Compiled) RunVectors(ctx context.Context, n int, lim Limits) ([]*Result, error) {
	ctx, err := startRun(ctx)
	if err != nil {
		return nil, err
	}
	arrays := cp.layout()
	scalars := make([]float64, len(cp.prog.Scalars))
	ivars := make([]int64, maxIvars(cp.prog))
	out := make([]*Result, 0, n)
	for v := 0; v < n; v++ {
		for i, a := range cp.arrayOrder {
			fillVector(arrays[i].data, a.Name, v)
		}
		env := &cenv{lim: lim, arrays: arrays, scalars: scalars, ivars: ivars, inputSeq: int64(v) << vectorShift}
		if err := cp.runOnce(ctx, env, trace.Int("vector", int64(v))); err != nil {
			return out, fmt.Errorf("input vector %d: %w", v, err)
		}
		out = append(out, env.res)
	}
	return out, nil
}

// vectorShift spaces the input vectors' streams 2^32 reads apart, far
// beyond any run's read count.
const vectorShift = 32

// fillVector sets an array's initial contents for input vector v: zero
// for vector 0, otherwise a value in [-0.5, 0.5) hashed from the array
// name, the vector and the element offset.
func fillVector(data []float64, name string, v int) {
	if v == 0 {
		clear(data)
		return
	}
	h := uint64(14695981039346656037) // FNV-1a over the name
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	h += uint64(v) << vectorShift
	for off := range data {
		data[off] = inputValue(int64(h + uint64(off)))
	}
}

// maxIvars counts the deepest loop-variable usage; slots are assigned
// per distinct variable name at compile time, so the count of distinct
// names suffices.
func maxIvars(p *ir.Program) int {
	names := map[string]bool{}
	var visit func([]ir.Stmt)
	visit = func(ss []ir.Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *ir.For:
				names[s.Var] = true
				visit(s.Body)
			case *ir.If:
				visit(s.Then)
				visit(s.Else)
			}
		}
	}
	for _, n := range p.Nests {
		visit(n.Body)
	}
	return len(names)
}

type compiler struct {
	prog     *ir.Program
	arrayIdx map[string]int
	scalIdx  map[string]int
	ivarIdx  map[string]int // loop variable -> slot
	nextIvar int
}

type fExpr func(env *cenv) (float64, error)
type iExpr func(env *cenv) (int64, error)
type stmtF func(env *cenv) error

func (c *compiler) ivarSlot(name string) int {
	if i, ok := c.ivarIdx[name]; ok {
		return i
	}
	i := c.nextIvar
	c.ivarIdx[name] = i
	c.nextIvar++
	return i
}

func (c *compiler) stmts(ss []ir.Stmt) (stmtF, error) {
	var fs []stmtF
	for _, s := range ss {
		f, err := c.stmt(s)
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	switch len(fs) {
	case 0:
		return func(env *cenv) error { return nil }, nil
	case 1:
		return fs[0], nil
	}
	return func(env *cenv) error {
		for _, f := range fs {
			if err := f(env); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func (c *compiler) stmt(s ir.Stmt) (stmtF, error) {
	switch s := s.(type) {
	case *ir.For:
		lo, err := c.intExpr(s.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.intExpr(s.Hi)
		if err != nil {
			return nil, err
		}
		// The slot must be assigned before compiling the body so inner
		// references resolve to it.
		slot := c.ivarSlot(s.Var)
		body, err := c.stmts(s.Body)
		if err != nil {
			return nil, err
		}
		step := int64(s.StepOr1())
		return func(env *cenv) error {
			l, err := lo(env)
			if err != nil {
				return err
			}
			h, err := hi(env)
			if err != nil {
				return err
			}
			for v := l; v <= h; v += step {
				if err := env.step(); err != nil {
					return err
				}
				env.ivars[slot] = v
				if err := body(env); err != nil {
					return err
				}
			}
			return nil
		}, nil
	case *ir.Assign:
		rhs, err := c.expr(s.RHS)
		if err != nil {
			return nil, err
		}
		store, err := c.store(s.LHS)
		if err != nil {
			return nil, err
		}
		return func(env *cenv) error {
			v, err := rhs(env)
			if err != nil {
				return err
			}
			return store(env, v)
		}, nil
	case *ir.If:
		cond, err := c.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.stmts(s.Then)
		if err != nil {
			return nil, err
		}
		els, err := c.stmts(s.Else)
		if err != nil {
			return nil, err
		}
		return func(env *cenv) error {
			v, err := cond(env)
			if err != nil {
				return err
			}
			if v != 0 {
				return then(env)
			}
			return els(env)
		}, nil
	case *ir.ReadInput:
		store, err := c.store(s.Target)
		if err != nil {
			return nil, err
		}
		return func(env *cenv) error {
			v := inputValue(env.inputSeq)
			env.inputSeq++
			return store(env, v)
		}, nil
	case *ir.Print:
		arg, err := c.expr(s.Arg)
		if err != nil {
			return nil, err
		}
		return func(env *cenv) error {
			v, err := arg(env)
			if err != nil {
				return err
			}
			env.res.Prints = append(env.res.Prints, v)
			return nil
		}, nil
	default:
		return nil, fmt.Errorf("unknown statement %T", s)
	}
}

// addr compiles an array reference into an offset computation.
func (c *compiler) addr(r *ir.Ref) (func(env *cenv) (int64, error), int, error) {
	ai, ok := c.arrayIdx[r.Name]
	if !ok {
		return nil, 0, fmt.Errorf("unknown array %q", r.Name)
	}
	decl := c.prog.Arrays[ai]
	if len(r.Index) != len(decl.Dims) {
		return nil, 0, fmt.Errorf("rank mismatch on %q", r.Name)
	}
	var idx []iExpr
	for _, ixe := range r.Index {
		f, err := c.intExpr(ixe)
		if err != nil {
			return nil, 0, err
		}
		idx = append(idx, f)
	}
	dims := decl.Dims
	where := ir.ExprString(r) // the interpreter's spelling, rendered once
	return func(env *cenv) (int64, error) {
		a := &env.arrays[ai]
		var off int64
		for k, f := range idx {
			v, err := f(env)
			if err != nil {
				return 0, err
			}
			if v < 0 || v >= int64(dims[k]) {
				return 0, fmt.Errorf("index %d out of bounds [0,%d) in %s", v, dims[k], where)
			}
			off += v * a.stride[k]
		}
		return off, nil
	}, ai, nil
}

func (c *compiler) store(r *ir.Ref) (func(env *cenv, v float64) error, error) {
	if r.IsScalar() {
		if si, ok := c.scalIdx[r.Name]; ok {
			return func(env *cenv, v float64) error {
				env.scalars[si] = v
				return nil
			}, nil
		}
		return nil, fmt.Errorf("unknown scalar %q", r.Name)
	}
	off, ai, err := c.addr(r)
	if err != nil {
		return nil, err
	}
	site := uint32(r.Site) // per-ref constant, captured at compile time
	return func(env *cenv, v float64) error {
		o, err := off(env)
		if err != nil {
			return err
		}
		a := &env.arrays[ai]
		if env.smach != nil {
			env.smach.StoreSite(a.base+o*ir.ElemSize, ir.ElemSize, site)
		} else if env.mach != nil {
			env.mach.Store(a.base+o*ir.ElemSize, ir.ElemSize)
		}
		a.data[o] = v
		return nil
	}, nil
}

func (c *compiler) intExpr(x ir.Expr) (iExpr, error) {
	switch x := x.(type) {
	case *ir.Num:
		i := int64(x.Val)
		if float64(i) != x.Val {
			return intFail(fmt.Errorf("non-integer literal %v in integer context", x.Val)), nil
		}
		return func(*cenv) (int64, error) { return i, nil }, nil
	case *ir.Var:
		if slot, ok := c.ivarIdx[x.Name]; ok {
			return func(env *cenv) (int64, error) { return env.ivars[slot], nil }, nil
		}
		if v, ok := c.prog.Consts[x.Name]; ok {
			return func(*cenv) (int64, error) { return v, nil }, nil
		}
		if si, ok := c.scalIdx[x.Name]; ok {
			name := x.Name
			return func(env *cenv) (int64, error) {
				f := env.scalars[si]
				i := int64(f)
				if float64(i) != f {
					return 0, fmt.Errorf("scalar %q holds non-integer %v in integer context", name, f)
				}
				return i, nil
			}, nil
		}
		return nil, fmt.Errorf("unknown variable %q in integer context", x.Name)
	case *ir.Neg:
		f, err := c.intExpr(x.X)
		if err != nil {
			return nil, err
		}
		return func(env *cenv) (int64, error) {
			v, err := f(env)
			return -v, err
		}, nil
	case *ir.Bin:
		l, err := c.intExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := c.intExpr(x.R)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case ir.Add:
			return func(env *cenv) (int64, error) {
				a, err := l(env)
				if err != nil {
					return 0, err
				}
				b, err := r(env)
				return a + b, err
			}, nil
		case ir.Sub:
			return func(env *cenv) (int64, error) {
				a, err := l(env)
				if err != nil {
					return 0, err
				}
				b, err := r(env)
				return a - b, err
			}, nil
		case ir.Mul:
			return func(env *cenv) (int64, error) {
				a, err := l(env)
				if err != nil {
					return 0, err
				}
				b, err := r(env)
				return a * b, err
			}, nil
		case ir.Div:
			return func(env *cenv) (int64, error) {
				a, err := l(env)
				if err != nil {
					return 0, err
				}
				b, err := r(env)
				if err != nil {
					return 0, err
				}
				if b == 0 {
					return 0, fmt.Errorf("integer division by zero")
				}
				return a / b, nil
			}, nil
		default:
			// The interpreter evaluates both operands before rejecting
			// the operator, so their errors take precedence.
			opErr := fmt.Errorf("operator %s not allowed in integer context", x.Op)
			return func(env *cenv) (int64, error) {
				if _, err := l(env); err != nil {
					return 0, err
				}
				if _, err := r(env); err != nil {
					return 0, err
				}
				return 0, opErr
			}, nil
		}
	case *ir.Call:
		if x.Fn == "mod" && len(x.Args) == 2 {
			l, err := c.intExpr(x.Args[0])
			if err != nil {
				return nil, err
			}
			r, err := c.intExpr(x.Args[1])
			if err != nil {
				return nil, err
			}
			return func(env *cenv) (int64, error) {
				a, err := l(env)
				if err != nil {
					return 0, err
				}
				b, err := r(env)
				if err != nil {
					return 0, err
				}
				if b == 0 {
					return 0, fmt.Errorf("mod by zero")
				}
				return a % b, nil
			}, nil
		}
		return intFail(fmt.Errorf("call %s not allowed in integer context", x.Fn)), nil
	default:
		return intFail(fmt.Errorf("expression %s not allowed in integer context", ir.ExprString(x))), nil
	}
}

// intFail defers an integer-context error to run time, where the
// interpreter reports it: code that never executes, such as a branch
// under "if 0", must not make a valid program fail to compile.
func intFail(err error) iExpr {
	return func(*cenv) (int64, error) { return 0, err }
}

func (c *compiler) expr(x ir.Expr) (fExpr, error) {
	switch x := x.(type) {
	case *ir.Num:
		v := x.Val
		return func(*cenv) (float64, error) { return v, nil }, nil
	case *ir.Var:
		if si, ok := c.scalIdx[x.Name]; ok {
			return func(env *cenv) (float64, error) { return env.scalars[si], nil }, nil
		}
		if slot, ok := c.ivarIdx[x.Name]; ok {
			return func(env *cenv) (float64, error) { return float64(env.ivars[slot]), nil }, nil
		}
		if v, ok := c.prog.Consts[x.Name]; ok {
			f := float64(v)
			return func(*cenv) (float64, error) { return f, nil }, nil
		}
		return nil, fmt.Errorf("unknown variable %q", x.Name)
	case *ir.Ref:
		if x.IsScalar() {
			if si, ok := c.scalIdx[x.Name]; ok {
				return func(env *cenv) (float64, error) { return env.scalars[si], nil }, nil
			}
			return nil, fmt.Errorf("unknown scalar %q", x.Name)
		}
		off, ai, err := c.addr(x)
		if err != nil {
			return nil, err
		}
		site := uint32(x.Site) // per-ref constant, captured at compile time
		return func(env *cenv) (float64, error) {
			o, err := off(env)
			if err != nil {
				return 0, err
			}
			a := &env.arrays[ai]
			if env.smach != nil {
				env.smach.LoadSite(a.base+o*ir.ElemSize, ir.ElemSize, site)
			} else if env.mach != nil {
				env.mach.Load(a.base+o*ir.ElemSize, ir.ElemSize)
			}
			return a.data[o], nil
		}, nil
	case *ir.Neg:
		f, err := c.expr(x.X)
		if err != nil {
			return nil, err
		}
		return func(env *cenv) (float64, error) {
			v, err := f(env)
			return -v, err
		}, nil
	case *ir.Bin:
		return c.binExpr(x)
	case *ir.Call:
		return c.callExpr(x)
	default:
		return nil, fmt.Errorf("unknown expression %T", x)
	}
}

func (c *compiler) binExpr(x *ir.Bin) (fExpr, error) {
	l, err := c.expr(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.expr(x.R)
	if err != nil {
		return nil, err
	}
	// Short-circuit logical operators.
	switch x.Op {
	case ir.And:
		return func(env *cenv) (float64, error) {
			a, err := l(env)
			if err != nil || a == 0 {
				return 0, err
			}
			b, err := r(env)
			if err != nil {
				return 0, err
			}
			return b2f(b != 0), nil
		}, nil
	case ir.Or:
		return func(env *cenv) (float64, error) {
			a, err := l(env)
			if err != nil {
				return 0, err
			}
			if a != 0 {
				return 1, nil
			}
			b, err := r(env)
			if err != nil {
				return 0, err
			}
			return b2f(b != 0), nil
		}, nil
	}
	type binop func(a, b float64, env *cenv) float64
	var op binop
	switch x.Op {
	case ir.Add:
		op = func(a, b float64, env *cenv) float64 { env.flop(1); return a + b }
	case ir.Sub:
		op = func(a, b float64, env *cenv) float64 { env.flop(1); return a - b }
	case ir.Mul:
		op = func(a, b float64, env *cenv) float64 { env.flop(1); return a * b }
	case ir.Div:
		op = func(a, b float64, env *cenv) float64 { env.flop(1); return a / b }
	case ir.Lt:
		op = func(a, b float64, _ *cenv) float64 { return b2f(a < b) }
	case ir.Le:
		op = func(a, b float64, _ *cenv) float64 { return b2f(a <= b) }
	case ir.Gt:
		op = func(a, b float64, _ *cenv) float64 { return b2f(a > b) }
	case ir.Ge:
		op = func(a, b float64, _ *cenv) float64 { return b2f(a >= b) }
	case ir.Eq:
		op = func(a, b float64, _ *cenv) float64 { return b2f(a == b) }
	case ir.Ne:
		op = func(a, b float64, _ *cenv) float64 { return b2f(a != b) }
	default:
		return nil, fmt.Errorf("unknown operator %v", x.Op)
	}
	return func(env *cenv) (float64, error) {
		a, err := l(env)
		if err != nil {
			return 0, err
		}
		b, err := r(env)
		if err != nil {
			return 0, err
		}
		return op(a, b, env), nil
	}, nil
}

func (env *cenv) flop(n int64) {
	env.flops += n
	if env.mach != nil {
		env.mach.AddFlops(n)
	}
}

func (c *compiler) callExpr(x *ir.Call) (fExpr, error) {
	var args []fExpr
	for _, a := range x.Args {
		f, err := c.expr(a)
		if err != nil {
			return nil, err
		}
		args = append(args, f)
	}
	// Compile has validated the program, so each call has its
	// intrinsic's argument count, and none takes more than two.
	evalArgs := func(env *cenv) (b [2]float64, err error) {
		for i, f := range args {
			if b[i], err = f(env); err != nil {
				return b, err
			}
		}
		return b, nil
	}
	switch x.Fn {
	case "f":
		return func(env *cenv) (float64, error) {
			b, err := evalArgs(env)
			if err != nil {
				return 0, err
			}
			env.flop(2)
			return 0.5*b[0] + 0.25*b[1], nil
		}, nil
	case "g":
		return func(env *cenv) (float64, error) {
			b, err := evalArgs(env)
			if err != nil {
				return 0, err
			}
			env.flop(2)
			return b[0]*0.75 + b[1], nil
		}, nil
	case "sqrt":
		return func(env *cenv) (float64, error) {
			b, err := evalArgs(env)
			if err != nil {
				return 0, err
			}
			env.flop(1)
			return math.Sqrt(math.Abs(b[0])), nil
		}, nil
	case "sin":
		return func(env *cenv) (float64, error) {
			b, err := evalArgs(env)
			if err != nil {
				return 0, err
			}
			env.flop(1)
			return math.Sin(b[0]), nil
		}, nil
	case "cos":
		return func(env *cenv) (float64, error) {
			b, err := evalArgs(env)
			if err != nil {
				return 0, err
			}
			env.flop(1)
			return math.Cos(b[0]), nil
		}, nil
	case "abs":
		return func(env *cenv) (float64, error) {
			b, err := evalArgs(env)
			if err != nil {
				return 0, err
			}
			return math.Abs(b[0]), nil
		}, nil
	case "min":
		return func(env *cenv) (float64, error) {
			b, err := evalArgs(env)
			if err != nil {
				return 0, err
			}
			return math.Min(b[0], b[1]), nil
		}, nil
	case "max":
		return func(env *cenv) (float64, error) {
			b, err := evalArgs(env)
			if err != nil {
				return 0, err
			}
			return math.Max(b[0], b[1]), nil
		}, nil
	case "mod":
		return func(env *cenv) (float64, error) {
			b, err := evalArgs(env)
			if err != nil {
				return 0, err
			}
			if b[1] == 0 {
				return 0, fmt.Errorf("mod by zero")
			}
			return math.Mod(b[0], b[1]), nil
		}, nil
	default: // unreachable: Validate rejects unknown intrinsics
		return nil, fmt.Errorf("unknown intrinsic %q", x.Fn)
	}
}
