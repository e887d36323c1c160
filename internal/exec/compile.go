package exec

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Closure compiler: the production execution engine. It compiles a
// program to a tree of Go closures with all name resolution done once,
// ahead of time — array bases and strides, scalar slots and loop
// variable slots become direct indices. The interpreter stays as an
// independent implementation of the executor semantics: the test suite
// runs both engines on the same programs and requires identical
// results, identical traffic and identical error text.
//
// Two choices keep the per-iteration cost low.
//
// Closures return bare values (func(*cenv) float64, int64, or nothing).
// A run-time fault — an index out of bounds, a non-integer in integer
// context, division or mod by zero, the step budget, cancellation —
// panics with a runFault (a fast reference out of bounds panics with
// the reference itself; see cref.fastOffset), and the nest's closure
// recovers it into the "exec: nest L: ..." error the interpreter
// returns. Any other panic, such as one from a Machine, is not a fault
// of the program and is re-raised.
//
// Subscripts that are affine in loop variables — integer literals, loop
// variables, named constants, +, -, negation and multiplication by a
// constant — are folded at compile time to c + Σ coef·ivar[slot]. A
// reference of rank one or two whose subscripts each read at most one
// loop variable is addressed inline by its load or store, and
// bounds-checked in the interpreter's order. Any other reference keeps
// a closure per dimension. Either way the machine sees the same
// LoadSite/StoreSite/AddFlops calls, with the same addresses and sites,
// in the same order as under the interpreter.

// Compiled is a program prepared for repeated execution.
type Compiled struct {
	prog       *ir.Program
	run        func(env *cenv) error
	arrayOrder []*ir.Array
	bases      []int64 // byte address of each array in arrayOrder
	elems      int     // total elements of all arrays: one run's storage
	nivars     int     // loop-variable slots a run needs

	// The batched loops (batch.go) are planned on the first run that may
	// batch, from src, which is dropped once they are.
	batchOnce sync.Once
	src       *batchSource
	batch     batchPlans
}

// cenv is the mutable state of one compiled execution.
type cenv struct {
	mach     Machine
	ctx      context.Context
	lim      Limits
	stepCap  int64 // lim.MaxSteps, or MaxInt64 when the run is unlimited
	steps    int64
	arrays   []carr
	scalars  []float64
	ivars    []int64
	res      *Result
	flops    int64
	inputSeq int64

	// slab holds the arrays' storage, and bufSlab, when the run may
	// batch, the chunk buffers; both go back to the pool in release.
	slab, bufSlab *[]float64

	// batch is non-nil only in a run that may batch (see batchHierarchy):
	// the plan of each loop that may run a chunk of iterations at a
	// time, indexed by the loop's batch id, and bufs holds their chunk
	// buffers. In such a run against a hierarchy, hier is that hierarchy
	// and strides holds a batched loop's accesses for Hierarchy.Strides.
	batch   []*batchLoop
	bufs    []float64
	hier    *sim.Hierarchy
	strides []sim.Stride
	batched []int64 // per batch id, the loop's batched executions; nil outside tests
}

// runFault carries a run-time error from the closure that detects it
// to the nest's closure, which recovers it.
type runFault struct{ err error }

// fail raises a run-time fault.
func fail(format string, args ...any) {
	panic(runFault{fmt.Errorf(format, args...)})
}

// tick is the slow half of a loop iteration's step accounting, entered
// once the budget is exceeded or at every poll point. It mirrors
// interp.step.
func (env *cenv) tick() {
	if env.steps > env.stepCap {
		fail("%w (limit %d iterations)", ErrStepBudget, env.lim.MaxSteps)
	}
	if env.steps&pollMask == 0 {
		env.poll()
	}
}

// poll fails the run once its context is done.
func (env *cenv) poll() {
	if err := env.ctx.Err(); err != nil {
		fail("%w after %d iterations: %v", ErrCanceled, env.steps, err)
	}
}

type carr struct {
	base int64
	data []float64
}

// Compile validates and compiles the program.
func Compile(p *ir.Program) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var err error
	c := &compiler{
		err:      &err,
		prog:     p,
		arrayIdx: map[string]int{},
		scalIdx:  map[string]int{},
		ivarIdx:  map[string]int{},
	}
	var src *batchSource
	if loops, refs := batchCounts(p); loops > 0 {
		src = &batchSource{loops: make([]batchSite, loops), crefs: make([]*cref, refs)}
		c.loops, c.crefs = src.loops, src.crefs
	}
	for i, a := range p.Arrays {
		c.arrayIdx[a.Name] = i
	}
	for i, s := range p.Scalars {
		c.scalIdx[s.Name] = i
	}
	var nests []func(env *cenv) error
	for i, n := range p.Nests {
		c.nest = i
		body := c.stmts(n.Body)
		if err != nil {
			return nil, fmt.Errorf("exec: compile nest %s: %w", n.Label, err)
		}
		nests = append(nests, nest(n.Label, body))
	}
	run := func(env *cenv) error {
		for _, n := range nests {
			if err := n(env); err != nil {
				return err
			}
		}
		return nil
	}
	bases, _ := Layout(p.Arrays)
	cp := &Compiled{prog: p, run: run, arrayOrder: p.Arrays, bases: bases, nivars: max(len(c.ivarIdx), 1)}
	if src != nil {
		src.ivars = make([]string, len(c.ivarIdx))
		for name, slot := range c.ivarIdx {
			src.ivars[slot] = name
		}
		cp.src = src
	}
	for _, a := range p.Arrays {
		cp.elems += a.Size()
	}
	return cp, nil
}

// nest runs one nest's body, turning a runFault, or the *cref of a
// fast reference out of bounds, into the nest's error.
func nest(label string, body stmtF) func(env *cenv) error {
	return func(env *cenv) (err error) {
		defer func() {
			if r := recover(); r != nil {
				var f error
				switch r := r.(type) {
				case runFault:
					f = r.err
				case *cref:
					f = r.outOfBounds(env.ivars)
				default:
					panic(r)
				}
				err = fmt.Errorf("exec: nest %s: %w", label, f)
			}
		}()
		body(env)
		return nil
	}
}

// Run executes the compiled program against a (possibly nil) machine.
func (cp *Compiled) Run(h Machine) (*Result, error) {
	return cp.RunCtx(context.Background(), h, Limits{})
}

// RunCtx is Run with cancellation and a step budget, with the same
// semantics as the package-level RunCtx. Compiled programs are
// stateless between runs, so one Compiled may serve many concurrent
// RunCtx calls, each with its own context. The run is input vector 0
// of RunVectors, made against h: its arrays live on a pooled slab that
// goes back to the pool when the run ends, so the Result carries
// prints, scalars and flops but no arrays.
func (cp *Compiled) RunCtx(ctx context.Context, h Machine, lim Limits) (*Result, error) {
	ctx, err := startRun(ctx)
	if err != nil {
		return nil, err
	}
	env := cp.vectorEnv(h, 0, lim)
	defer env.release()
	if err := cp.runOnce(ctx, env); err != nil {
		return nil, err
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
	env.stepCap = math.MaxInt64
	if env.lim.MaxSteps > 0 {
		env.stepCap = env.lim.MaxSteps
	}
	for i, s := range cp.prog.Scalars {
		env.scalars[i] = s.Init
	}
	env.res = &Result{Scalars: make(map[string]float64, len(env.scalars))}
	if err := cp.run(env); err != nil {
		if h, ok := env.mach.(*sim.Hierarchy); ok {
			// A run that stops early is never flushed; simulate what a
			// partitioned hierarchy has logged, so its counter fields
			// are current.
			h.Sync()
		}
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

// batchHierarchy reports whether a run against h may batch its loops,
// and returns the hierarchy to hand their accesses to. A run with no
// machine may, and so may one against a hierarchy with no reuse-distance
// recorder: Hierarchy.Strides gives it the accesses in the order the
// per-iteration engine would. A recorder charges flops to the epoch
// current between accesses, which a chunk's flops, added at once, would
// not match, and any other machine sees each access through its own
// LoadSite or StoreSite.
func batchHierarchy(h Machine) (*sim.Hierarchy, bool) {
	if h == nil {
		return nil, true
	}
	hier, ok := h.(*sim.Hierarchy)
	return hier, ok && hier.MRC() == nil
}

// layout carves every array's storage out of slab, which holds at
// least cp.elems elements, in declaration order.
func (cp *Compiled) layout(slab []float64) []carr {
	arrays := make([]carr, len(cp.arrayOrder))
	for i, a := range cp.arrayOrder {
		n := a.Size()
		arrays[i] = carr{base: cp.bases[i], data: slab[:n:n]}
		slab = slab[n:]
	}
	return arrays
}

// RunVectors runs the program functionally — no machine — once per
// input vector 0, 1, ..., n-1, each under its own exec.run span (with a
// "vector" attribute) and its own lim.MaxSteps budget. Vector 0 is the
// plain run: zero-filled arrays and the seeded input stream. Every
// later vector v starts each array element at a value seeded from the
// array's name and the element's column-major offset, and reads the
// input stream from a position shifted by v. Names, not memory layout,
// pick the values, so two programs that declare the same array see the
// same initial contents.
//
// The vectors run concurrently, the last one on the calling goroutine,
// and the call returns once all of them have stopped. Each vector has
// its own scalars, loop variables and array storage; the storage is a
// pooled slab that goes back to the pool when the vector ends, so each
// Result carries prints, scalars and flops but no arrays. Results come
// back in vector order. The first failing vector (lowest index) ends
// the call: RunVectors returns the results of the vectors before it and
// an error naming it, and cancels the vectors after it, whose errors
// are never reported. A panic that is not a run-time fault is re-raised
// on the caller in the same way, once every vector has stopped.
func (cp *Compiled) RunVectors(ctx context.Context, n int, lim Limits) ([]*Result, error) {
	ctx, err := startRun(ctx)
	if err != nil {
		return nil, err
	}
	// Vector v runs under ctxs[v], and vector v+1's context derives from
	// it, so stops[v] cancels every vector after v and none before it.
	ctxs := make([]context.Context, n)
	stops := make([]context.CancelFunc, n)
	for v := range ctxs {
		ctxs[v] = ctx
		ctx, stops[v] = context.WithCancel(ctx)
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	runs := make([]vectorRun, n)
	var wg sync.WaitGroup
	for v := range runs {
		run := func() {
			if runs[v] = cp.runVector(ctxs[v], v, lim); runs[v].res == nil {
				stops[v]()
			}
		}
		if v == n-1 {
			run()
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	out := make([]*Result, 0, n)
	for v, r := range runs {
		switch {
		case r.panic != nil:
			panic(r.panic)
		case r.err != nil:
			return out, fmt.Errorf("input vector %d: %w", v, r.err)
		}
		out = append(out, r.res)
	}
	return out, nil
}

// vectorRun is how one input vector of RunVectors ended: with a
// result, a run-time error, or a recovered panic.
type vectorRun struct {
	res   *Result
	err   error
	panic any
}

// runVector runs input vector v on a pooled slab, recovering a panic
// for RunVectors to re-raise on its caller.
func (cp *Compiled) runVector(ctx context.Context, v int, lim Limits) (r vectorRun) {
	defer func() {
		if p := recover(); p != nil {
			r = vectorRun{panic: p}
		}
	}()
	env := cp.vectorEnv(nil, v, lim)
	defer env.release()
	if err := cp.runOnce(ctx, env, trace.Int("vector", int64(v))); err != nil {
		return vectorRun{err: err}
	}
	return vectorRun{res: env.res}
}

// vectorEnv returns the state of input vector v's run against h, which
// may be nil: the arrays are carved out of a pooled slab and filled for
// v. When the run may batch (batchHierarchy) and the program has
// batched loops, their chunk buffers come from the pool too, as a slab
// of their own, so they never push the arrays' slab into a larger size
// class. The caller runs env with runOnce and then calls env.release.
func (cp *Compiled) vectorEnv(h Machine, v int, lim Limits) *cenv {
	env := &cenv{
		mach:     h,
		lim:      lim,
		scalars:  make([]float64, len(cp.prog.Scalars)),
		ivars:    make([]int64, cp.nivars),
		inputSeq: int64(v) << vectorShift,
		slab:     getSlab(cp.elems),
	}
	env.arrays = cp.layout(*env.slab)
	for i, a := range cp.arrayOrder {
		fillVector(env.arrays[i].data, a.Name, v)
	}
	hier, ok := batchHierarchy(h)
	if !ok {
		return env
	}
	if b := cp.plans(); b.loops != nil {
		env.bufSlab = getSlab(b.bufLen)
		env.batch, env.bufs = b.loops, *env.bufSlab
		if hier != nil {
			env.hier, env.strides = hier, make([]sim.Stride, b.maxRefs)
		}
	}
	return env
}

// release puts env's slabs back in the pool once its run is over.
func (env *cenv) release() {
	putSlab(env.slab)
	if env.bufSlab != nil {
		putSlab(env.bufSlab)
	}
}

// slabPools holds every compiled run's array storage and chunk buffers
// between runs: slabPools[k] holds slabs of 1<<k elements. A slab's
// stale contents never leak into a run, because fillVector overwrites
// every array element (vector 0 clears it), and a batched loop writes
// each chunk buffer before it reads it.
var slabPools [bits.UintSize]sync.Pool

// getSlab returns a slab of at least n elements.
func getSlab(n int) *[]float64 {
	k := bits.Len(uint(max(n, 1) - 1))
	if s, ok := slabPools[k].Get().(*[]float64); ok {
		return s
	}
	s := make([]float64, 1<<k)
	return &s
}

func putSlab(s *[]float64) {
	slabPools[bits.Len(uint(len(*s)-1))].Put(s)
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

// compiler holds the name resolution of one Compile call. The first
// compile-time error sticks in *err; later compile steps still return
// closures, which are discarded.
type compiler struct {
	prog     *ir.Program
	arrayIdx map[string]int
	scalIdx  map[string]int
	ivarIdx  map[string]int // loop variable -> slot
	err      *error         // Compile's error; see errorf
	nest     int            // index of the nest being compiled

	// The loops that may batch, by batch id, and the compiled references
	// of their bodies, which ref records while recording is set. Compile
	// sizes both slices beforehand and the compiler only stores into
	// them: were it to append, escape analysis would move its maps to
	// the heap.
	loops     []batchSite
	crefs     []*cref
	nloops    int
	ncrefs    int
	recording bool
}

type fExpr func(env *cenv) float64
type iExpr func(env *cenv) int64
type stmtF func(env *cenv)

// errorf records the first compile-time error. It writes through a
// pointer to Compile's own variable: nothing read out of the compiler
// reaches the heap, so escape analysis keeps its maps on the stack.
func (c *compiler) errorf(format string, args ...any) {
	if *c.err == nil {
		*c.err = fmt.Errorf(format, args...)
	}
}

func (c *compiler) ivarSlot(name string) int {
	if i, ok := c.ivarIdx[name]; ok {
		return i
	}
	i := len(c.ivarIdx)
	c.ivarIdx[name] = i
	return i
}

func (c *compiler) stmts(ss []ir.Stmt) stmtF {
	switch len(ss) {
	case 0:
		return func(*cenv) {}
	case 1:
		return c.stmt(ss[0])
	}
	fs := make([]stmtF, len(ss))
	for i, s := range ss {
		fs[i] = c.stmt(s)
	}
	return func(env *cenv) {
		for _, f := range fs {
			f(env)
		}
	}
}

func (c *compiler) stmt(s ir.Stmt) stmtF {
	switch s := s.(type) {
	case *ir.For:
		lo, hi := c.intExpr(s.Lo), c.intExpr(s.Hi)
		// The slot must be assigned before compiling the body so inner
		// references resolve to it.
		slot := c.ivarSlot(s.Var)
		bid := c.batchSite(s, slot)
		body := c.stmts(s.Body)
		if bid >= 0 {
			c.loops[bid].refs[1] = int32(c.ncrefs)
			c.recording = false
		}
		step := int64(s.StepOr1())
		return func(env *cenv) {
			l := lo(env)
			h := hi(env)
			if bid >= 0 && env.batch != nil && env.batch[bid] != nil && env.batch[bid].run(env, l, h) {
				if env.batched != nil {
					env.batched[bid]++
				}
				return
			}
			for v := l; v <= h; v += step {
				env.steps++
				if env.steps > env.stepCap || env.steps&pollMask == 0 {
					env.tick()
				}
				env.ivars[slot] = v
				body(env)
			}
		}
	case *ir.Assign:
		rhs := c.expr(s.RHS)
		if s.LHS.IsScalar() {
			si := c.scalar(s.LHS.Name)
			return func(env *cenv) { env.scalars[si] = rhs(env) }
		}
		r := c.ref(s.LHS)
		if r.fast {
			return func(env *cenv) { v := rhs(env); r.write(env, r.fastOffset(env.ivars), v) }
		}
		return func(env *cenv) { v := rhs(env); r.write(env, r.offset(env), v) }
	case *ir.If:
		cond, then, els := c.expr(s.Cond), c.stmts(s.Then), c.stmts(s.Else)
		return func(env *cenv) {
			if cond(env) != 0 {
				then(env)
			} else {
				els(env)
			}
		}
	case *ir.ReadInput:
		if s.Target.IsScalar() {
			si := c.scalar(s.Target.Name)
			return func(env *cenv) {
				env.scalars[si] = inputValue(env.inputSeq)
				env.inputSeq++
			}
		}
		r := c.ref(s.Target)
		return func(env *cenv) {
			v := inputValue(env.inputSeq)
			env.inputSeq++
			r.write(env, r.offset(env), v)
		}
	case *ir.Print:
		arg := c.expr(s.Arg)
		return func(env *cenv) { env.res.Prints = append(env.res.Prints, arg(env)) }
	default:
		c.errorf("unknown statement %T", s)
		return func(*cenv) {}
	}
}

func (c *compiler) scalar(name string) int {
	si, ok := c.scalIdx[name]
	if !ok {
		c.errorf("unknown scalar %q", name)
	}
	return si
}

// affine is the folded form c + Σ coef·ivars[slot] of an integer
// expression built from integer literals, loop variables, named
// constants, +, -, negation and multiplication by a constant. int64
// arithmetic wraps, so the folded form computes exactly what the
// expression tree does. Term slices are shared between forms and never
// modified in place.
type affine struct {
	c     int64
	terms []term
}

type term struct {
	slot int
	coef int64
}

func (a *affine) eval(ivars []int64) int64 {
	v := a.c
	for _, t := range a.terms {
		v += t.coef * ivars[t.slot]
	}
	return v
}

// scaled returns k·a.
func (a affine) scaled(k int64) affine {
	if k == 1 || len(a.terms) == 0 {
		return affine{c: a.c * k, terms: a.terms}
	}
	out := affine{c: a.c * k, terms: make([]term, len(a.terms))}
	for i, t := range a.terms {
		out.terms[i] = term{t.slot, t.coef * k}
	}
	return out
}

// plus returns a + b, one term per slot.
func (a affine) plus(b affine) affine {
	switch {
	case len(b.terms) == 0:
		return affine{c: a.c + b.c, terms: a.terms}
	case len(a.terms) == 0:
		return affine{c: a.c + b.c, terms: b.terms}
	}
	out := affine{c: a.c + b.c, terms: append([]term(nil), a.terms...)}
next:
	for _, t := range b.terms {
		for i := range out.terms {
			if out.terms[i].slot == t.slot {
				out.terms[i].coef += t.coef
				continue next
			}
		}
		out.terms = append(out.terms, t)
	}
	return out
}

// affine folds x, reporting false when x is not affine.
func (c *compiler) affine(x ir.Expr) (affine, bool) {
	switch x := x.(type) {
	case *ir.Num:
		i := int64(x.Val)
		return affine{c: i}, float64(i) == x.Val
	case *ir.Var:
		if slot, ok := c.ivarIdx[x.Name]; ok {
			return affine{terms: []term{{slot, 1}}}, true
		}
		v, ok := c.prog.Consts[x.Name]
		return affine{c: v}, ok
	case *ir.Neg:
		a, ok := c.affine(x.X)
		return a.scaled(-1), ok
	case *ir.Bin:
		if x.Op != ir.Add && x.Op != ir.Sub && x.Op != ir.Mul {
			return affine{}, false
		}
		l, ok := c.affine(x.L)
		if !ok {
			return affine{}, false
		}
		r, ok := c.affine(x.R)
		if !ok {
			return affine{}, false
		}
		switch {
		case x.Op == ir.Add:
			return l.plus(r), true
		case x.Op == ir.Sub:
			return l.plus(r.scaled(-1)), true
		case len(r.terms) == 0:
			return l.scaled(r.c), true
		case len(l.terms) == 0:
			return r.scaled(l.c), true
		}
	}
	return affine{}, false
}

// cref is a compiled array reference. A reference of rank one or two
// whose subscripts each read at most one loop variable is fast: f
// addresses it without a loop over dimensions. Any other reference is
// addressed dimension by dimension through dims.
type cref struct {
	ai   int
	site uint32 // per-ref constant, captured at compile time
	fast bool
	f    fast2
	dims []cdim
	ref  *ir.Ref // rendered in fault messages
}

// cdim is one subscript of a reference that is not fast.
type cdim struct {
	gen    iExpr
	extent int64
	stride int64
}

// fast2 holds the subscripts c + k·ivars[s] of a fast reference, with
// extents n and the second dimension's stride st. Rank one pads the
// second dimension with the constant 0 of extent 1, and a constant
// subscript has k 0 and s 0.
type fast2 struct {
	c0, k0, n0     int64
	c1, k1, n1, st int64
	s0, s1         int32
}

// at returns the offset and whether both subscripts are in bounds. On
// false the caller calls cref.outOfBounds.
func (f *fast2) at(ivars []int64) (int64, bool) {
	v0 := f.c0 + f.k0*ivars[f.s0]
	v1 := f.c1 + f.k1*ivars[f.s1]
	return v0 + v1*f.st, uint64(v0) < uint64(f.n0) && uint64(v1) < uint64(f.n1)
}

// ref compiles an array reference. The compiler compiles each reference
// once; in the body of a loop that may batch, it keeps the result for
// the loop's plan.
func (c *compiler) ref(r *ir.Ref) *cref {
	cr := c.newRef(r)
	if c.recording && c.ncrefs < len(c.crefs) {
		c.crefs[c.ncrefs] = cr
		c.ncrefs++
	}
	return cr
}

func (c *compiler) newRef(r *ir.Ref) *cref {
	ai, ok := c.arrayIdx[r.Name]
	if !ok {
		c.errorf("unknown array %q", r.Name)
		return &cref{}
	}
	decl := c.prog.Arrays[ai]
	if len(r.Index) != len(decl.Dims) {
		c.errorf("rank mismatch on %q", r.Name)
		return &cref{}
	}
	cr := &cref{ai: ai, site: uint32(r.Site), ref: r, fast: len(r.Index) <= 2}
	var buf [2]affine
	forms := buf[:0]
	for _, ixe := range r.Index {
		a, ok := c.affine(ixe)
		cr.fast = cr.fast && ok && len(a.terms) <= 1
		forms = append(forms, a)
	}
	if !cr.fast {
		stride := int64(1)
		for k, ixe := range r.Index {
			d := cdim{gen: c.intExpr(ixe), extent: int64(decl.Dims[k]), stride: stride}
			stride *= d.extent
			cr.dims = append(cr.dims, d)
		}
		return cr
	}
	f := &cr.f
	f.c0, f.n0, f.n1 = forms[0].c, int64(decl.Dims[0]), 1
	if t := forms[0].terms; len(t) == 1 {
		f.k0, f.s0 = t[0].coef, int32(t[0].slot)
	}
	if len(forms) == 2 {
		f.c1, f.n1, f.st = forms[1].c, int64(decl.Dims[1]), int64(decl.Dims[0])
		if t := forms[1].terms; len(t) == 1 {
			f.k1, f.s1 = t[0].coef, int32(t[0].slot)
		}
	}
	return cr
}

// offset computes the element offset of the reference. A reference
// that is not fast is evaluated and bounds-checked one dimension at a
// time, as the interpreter does.
func (r *cref) offset(env *cenv) int64 {
	if r.fast {
		return r.fastOffset(env.ivars)
	}
	var off int64
	for k := range r.dims {
		d := &r.dims[k]
		v := d.gen(env)
		if uint64(v) >= uint64(d.extent) {
			panic(runFault{r.boundsErr(v, d.extent)})
		}
		off += v * d.stride
	}
	return off
}

// fastOffset computes the element offset of a fast reference. It is
// small enough to inline into the load and store closures, because an
// index out of bounds panics with the reference itself rather than
// calling out to format the fault: nest recovers it and calls
// outOfBounds while ivars still hold the faulting iteration.
func (r *cref) fastOffset(ivars []int64) int64 {
	o, ok := r.f.at(ivars)
	if !ok {
		panic(r)
	}
	return o
}

// outOfBounds is the fault of a fast reference whose at reported
// false, naming the first subscript out of bounds.
func (r *cref) outOfBounds(ivars []int64) error {
	f := &r.f
	v, n := f.c0+f.k0*ivars[f.s0], f.n0
	if uint64(v) < uint64(n) {
		v, n = f.c1+f.k1*ivars[f.s1], f.n1
	}
	return r.boundsErr(v, n)
}

func (r *cref) boundsErr(v, n int64) error {
	return fmt.Errorf("index %d out of bounds [0,%d) in %s", v, n, ir.ExprString(r.ref))
}

// load compiles an array read. A fast reference gets its own closure,
// into which fastOffset inlines.
func (c *compiler) load(r *cref) fExpr {
	if r.fast {
		return func(env *cenv) float64 { return r.read(env, r.fastOffset(env.ivars)) }
	}
	return func(env *cenv) float64 { return r.read(env, r.offset(env)) }
}

// read issues the load of element o to the machine, if any, and
// returns the element.
func (r *cref) read(env *cenv, o int64) float64 {
	if env.mach != nil {
		r.access(env, o, false)
	}
	return env.arrays[r.ai].data[o]
}

// write issues the store of element o to the machine, if any, and sets
// the element to v.
func (r *cref) write(env *cenv, o int64, v float64) {
	if env.mach != nil {
		r.access(env, o, true)
	}
	env.arrays[r.ai].data[o] = v
}

func (r *cref) access(env *cenv, o int64, store bool) {
	addr := env.arrays[r.ai].base + o*ir.ElemSize
	if store {
		env.mach.StoreSite(addr, ir.ElemSize, r.site)
	} else {
		env.mach.LoadSite(addr, ir.ElemSize, r.site)
	}
}

func (c *compiler) intExpr(x ir.Expr) iExpr {
	if a, ok := c.affine(x); ok {
		if k := a.c; len(a.terms) == 0 {
			return func(*cenv) int64 { return k }
		}
		af := a // only this branch moves the form to the heap
		return func(env *cenv) int64 { return af.eval(env.ivars) }
	}
	switch x := x.(type) {
	case *ir.Num:
		return intFail("non-integer literal %v in integer context", x.Val)
	case *ir.Var:
		if si, ok := c.scalIdx[x.Name]; ok {
			name := x.Name
			return func(env *cenv) int64 {
				f := env.scalars[si]
				i := int64(f)
				if float64(i) != f {
					fail("scalar %q holds non-integer %v in integer context", name, f)
				}
				return i
			}
		}
		c.errorf("unknown variable %q in integer context", x.Name)
		return intFail("unknown variable %q in integer context", x.Name)
	case *ir.Neg:
		f := c.intExpr(x.X)
		return func(env *cenv) int64 { return -f(env) }
	case *ir.Bin:
		l, r := c.intExpr(x.L), c.intExpr(x.R)
		switch x.Op {
		case ir.Add:
			return func(env *cenv) int64 { return l(env) + r(env) }
		case ir.Sub:
			return func(env *cenv) int64 { return l(env) - r(env) }
		case ir.Mul:
			return func(env *cenv) int64 { return l(env) * r(env) }
		case ir.Div:
			return func(env *cenv) int64 {
				a, b := l(env), r(env)
				if b == 0 {
					fail("integer division by zero")
				}
				return a / b
			}
		default:
			// The interpreter evaluates both operands before rejecting
			// the operator, so their faults take precedence.
			op := x.Op
			return func(env *cenv) int64 {
				l(env)
				r(env)
				fail("operator %s not allowed in integer context", op)
				return 0
			}
		}
	case *ir.Call:
		if x.Fn == "mod" && len(x.Args) == 2 {
			l, r := c.intExpr(x.Args[0]), c.intExpr(x.Args[1])
			return func(env *cenv) int64 {
				a, b := l(env), r(env)
				if b == 0 {
					fail("mod by zero")
				}
				return a % b
			}
		}
		return intFail("call %s not allowed in integer context", x.Fn)
	default:
		return intFail("expression %s not allowed in integer context", ir.ExprString(x))
	}
}

// intFail defers an integer-context error to run time, where the
// interpreter reports it: code that never executes, such as a branch
// under "if 0", must not make a valid program fail to compile.
func intFail(format string, args ...any) iExpr {
	err := fmt.Errorf(format, args...)
	return func(*cenv) int64 { panic(runFault{err}) }
}

func (c *compiler) expr(x ir.Expr) fExpr {
	switch x := x.(type) {
	case *ir.Num:
		v := x.Val
		return func(*cenv) float64 { return v }
	case *ir.Var:
		if si, ok := c.scalIdx[x.Name]; ok {
			return func(env *cenv) float64 { return env.scalars[si] }
		}
		if slot, ok := c.ivarIdx[x.Name]; ok {
			return func(env *cenv) float64 { return float64(env.ivars[slot]) }
		}
		if v, ok := c.prog.Consts[x.Name]; ok {
			f := float64(v)
			return func(*cenv) float64 { return f }
		}
		c.errorf("unknown variable %q", x.Name)
	case *ir.Ref:
		if x.IsScalar() {
			si := c.scalar(x.Name)
			return func(env *cenv) float64 { return env.scalars[si] }
		}
		return c.load(c.ref(x))
	case *ir.Neg:
		f := c.expr(x.X)
		return func(env *cenv) float64 { return -f(env) }
	case *ir.Bin:
		return c.binExpr(x)
	case *ir.Call:
		return c.callExpr(x)
	default:
		c.errorf("unknown expression %T", x)
	}
	return func(*cenv) float64 { return 0 }
}

func (c *compiler) binExpr(x *ir.Bin) fExpr {
	if x.Op.IsArith() {
		return c.arithExpr(x)
	}
	l, r := c.expr(x.L), c.expr(x.R)
	switch x.Op {
	// Short-circuit logical operators.
	case ir.And:
		return func(env *cenv) float64 { return b2f(l(env) != 0 && r(env) != 0) }
	case ir.Or:
		return func(env *cenv) float64 { return b2f(l(env) != 0 || r(env) != 0) }
	case ir.Lt:
		return func(env *cenv) float64 { return b2f(l(env) < r(env)) }
	case ir.Le:
		return func(env *cenv) float64 { return b2f(l(env) <= r(env)) }
	case ir.Gt:
		return func(env *cenv) float64 { return b2f(l(env) > r(env)) }
	case ir.Ge:
		return func(env *cenv) float64 { return b2f(l(env) >= r(env)) }
	case ir.Eq:
		return func(env *cenv) float64 { return b2f(l(env) == r(env)) }
	case ir.Ne:
		return func(env *cenv) float64 { return b2f(l(env) != r(env)) }
	}
	c.errorf("unknown operator %v", x.Op)
	return func(*cenv) float64 { return 0 }
}

// arithExpr compiles +, -, * or /, which counts its flop once both
// operands are evaluated. A fast array operand is read inline instead
// of through a load closure, which saves a closure call per operand per
// evaluation. The order is the unfused one: the left operand's access
// (or fault), the right's, then the flop.
func (c *compiler) arithExpr(x *ir.Bin) fExpr {
	op := x.Op
	lr, l := c.operand(x.L)
	rr, r := c.operand(x.R)
	switch {
	case lr != nil && rr != nil:
		return func(env *cenv) float64 {
			a := lr.read(env, lr.fastOffset(env.ivars))
			b := rr.read(env, rr.fastOffset(env.ivars))
			env.flop(1)
			return arith(op, a, b)
		}
	case lr != nil:
		return func(env *cenv) float64 {
			a := lr.read(env, lr.fastOffset(env.ivars))
			b := r(env)
			env.flop(1)
			return arith(op, a, b)
		}
	case rr != nil:
		return func(env *cenv) float64 {
			a := l(env)
			b := rr.read(env, rr.fastOffset(env.ivars))
			env.flop(1)
			return arith(op, a, b)
		}
	}
	switch op {
	case ir.Add:
		return func(env *cenv) float64 { a, b := l(env), r(env); env.flop(1); return a + b }
	case ir.Sub:
		return func(env *cenv) float64 { a, b := l(env), r(env); env.flop(1); return a - b }
	case ir.Mul:
		return func(env *cenv) float64 { a, b := l(env), r(env); env.flop(1); return a * b }
	}
	return func(env *cenv) float64 { a, b := l(env), r(env); env.flop(1); return a / b }
}

// operand compiles an arithmetic operand: a fast array read to its
// reference, anything else to a closure.
func (c *compiler) operand(x ir.Expr) (*cref, fExpr) {
	if r, ok := x.(*ir.Ref); ok && !r.IsScalar() {
		cr := c.ref(r)
		if cr.fast {
			return cr, nil
		}
		return nil, c.load(cr)
	}
	return nil, c.expr(x)
}

// arith applies one of the four arithmetic operators.
func arith(op ir.Op, a, b float64) float64 {
	switch op {
	case ir.Add:
		return a + b
	case ir.Sub:
		return a - b
	case ir.Mul:
		return a * b
	}
	return a / b
}

func (env *cenv) flop(n int64) {
	env.flops += n
	if env.mach != nil {
		env.mach.AddFlops(n)
	}
}

type callFn uint8

const (
	callF callFn = iota
	callG
	callSqrt
	callSin
	callCos
	callAbs
	callMin
	callMax
)

// callFns maps every intrinsic but mod, which can fault, to its code
// and flop cost.
var callFns = map[string]struct {
	fn    callFn
	flops int64
}{
	"f": {callF, 2}, "g": {callG, 2}, "sqrt": {callSqrt, 1}, "sin": {callSin, 1},
	"cos": {callCos, 1}, "abs": {callAbs, 0}, "min": {callMin, 0}, "max": {callMax, 0},
}

// callValue computes an intrinsic other than mod. f and g are the
// paper's opaque example functions (Figure 6).
func callValue(fn callFn, u, v float64) float64 {
	switch fn {
	case callF:
		return 0.5*u + 0.25*v
	case callG:
		return u*0.75 + v
	case callSqrt:
		return math.Sqrt(math.Abs(u))
	case callSin:
		return math.Sin(u)
	case callCos:
		return math.Cos(u)
	case callAbs:
		return math.Abs(u)
	case callMin:
		return math.Min(u, v)
	}
	return math.Max(u, v)
}

func (c *compiler) callExpr(x *ir.Call) fExpr {
	// Compile has validated the program, so each call has its
	// intrinsic's argument count, and none takes more than two.
	var args [2]fExpr
	for i, a := range x.Args {
		args[i] = c.expr(a)
	}
	a, b := args[0], args[1]
	if x.Fn == "mod" {
		return func(env *cenv) float64 {
			u, v := a(env), b(env)
			if v == 0 {
				fail("mod by zero")
			}
			return math.Mod(u, v)
		}
	}
	if fn, ok := callFns[x.Fn]; ok {
		if b == nil {
			return func(env *cenv) float64 {
				u := a(env)
				if fn.flops > 0 {
					env.flop(fn.flops)
				}
				return callValue(fn.fn, u, 0)
			}
		}
		return func(env *cenv) float64 {
			u, v := a(env), b(env)
			if fn.flops > 0 {
				env.flop(fn.flops)
			}
			return callValue(fn.fn, u, v)
		}
	}
	c.errorf("unknown intrinsic %q", x.Fn) // unreachable: Validate rejects unknown intrinsics
	return func(*cenv) float64 { return 0 }
}
