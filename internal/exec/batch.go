package exec

import (
	"math"
	"slices"

	"repro/internal/ir"
	"repro/internal/sim"
)

// Batched loops: a run with no machine, or against a plain hierarchy
// (batchHierarchy), executes an innermost loop whose body qualifies a
// chunk of iterations at a time. Each expression node fills one buffer
// per chunk, so the loop makes no closure call per iteration. Under a
// hierarchy, each chunk then hands its accesses to Hierarchy.Strides in
// one call, which simulates them in the per-iteration engine's order:
// iteration by iteration, the body's references in evaluation order.
// Any other machine keeps the per-iteration closures.
//
// A loop qualifies at plan time (batchPlan) when its body holds only
// assignments and reads, every array reference is on the fast path,
// every reference to an array the loop writes has one subscript form
// that moves every iteration, each scalar it writes is private or a
// reduction, and no operator can fault or short-circuit (no mod, && or
// ||). It runs batched when, at entry, its bounds are small, its whole
// trip fits the step budget and every reference is in bounds at the
// first and the last iteration. Otherwise it runs per iteration, and
// faults exactly where it always did.

const (
	// batchChunk is the most iterations one chunk runs.
	batchChunk = 128
	// batchMax bounds the loop bounds and every subscript constant and
	// coefficient of a batched loop, so no subscript overflows.
	batchMax = 1 << 31
	// maxReduceArgs bounds the operands of a batched reduction.
	maxReduceArgs = 8
)

// batchSite is a loop whose body holds only assignments and reads.
type batchSite struct {
	loop *ir.For
	nest int32    // index in the program's nests
	slot int32    // the loop variable's slot
	refs [2]int32 // its body's references are batchSource.crefs[refs[0]:refs[1]]
}

// batchSite records f, with loop variable slot, when its body holds only
// assignments and reads, and returns its batch id, or -1. The compiler
// then records the references of f's body until the body is compiled.
func (c *compiler) batchSite(f *ir.For, slot int) int {
	if !batchBody(f.Body) || c.nloops == len(c.loops) {
		return -1
	}
	c.loops[c.nloops] = batchSite{loop: f, nest: int32(c.nest), slot: int32(slot), refs: [2]int32{int32(c.ncrefs)}}
	c.nloops++
	c.recording = true
	return c.nloops - 1
}

// batchBody reports whether a loop body holds only assignments and
// reads.
func batchBody(body []ir.Stmt) bool {
	for _, s := range body {
		switch s.(type) {
		case *ir.Assign, *ir.ReadInput:
		default:
			return false
		}
	}
	return true
}

// batchCounts counts the loops of p whose bodies hold only assignments
// and reads, and the array references the compiler compiles in them.
func batchCounts(p *ir.Program) (loops, refs int) {
	for _, n := range p.Nests {
		countBatch(n.Body, &loops, &refs)
	}
	return loops, refs
}

func countBatch(ss []ir.Stmt, loops, refs *int) {
	for _, s := range ss {
		switch s := s.(type) {
		case *ir.For:
			if !batchBody(s.Body) {
				countBatch(s.Body, loops, refs)
				continue
			}
			*loops++
			for _, s := range s.Body {
				_, r := stmtSize(s)
				*refs += r
			}
		case *ir.If:
			countBatch(s.Then, loops, refs)
			countBatch(s.Else, loops, refs)
		}
	}
}

// stmtSize bounds the plan nodes of an assignment or a read, and counts
// the array references the compiler compiles in it: each one read as a
// value, and its target.
func stmtSize(s ir.Stmt) (nodes, refs int) {
	var target *ir.Ref
	switch s := s.(type) {
	case *ir.Assign:
		nodes, refs = exprSize(s.RHS)
		target = s.LHS
	case *ir.ReadInput:
		target = s.Target
	}
	if !target.IsScalar() {
		refs++
	}
	return nodes, refs
}

// exprSize counts the nodes of x and the array references it reads.
// Subscripts are integer expressions and not counted.
func exprSize(x ir.Expr) (nodes, refs int) {
	switch x := x.(type) {
	case *ir.Ref:
		if !x.IsScalar() {
			return 1, 1
		}
	case *ir.Neg:
		n, r := exprSize(x.X)
		return n + 1, r
	case *ir.Bin:
		n, r := exprSize(x.L)
		n2, r2 := exprSize(x.R)
		return n + n2 + 1, r + r2
	case *ir.Call:
		nodes = 1
		for _, a := range x.Args {
			n, r := exprSize(a)
			nodes, refs = nodes+n, refs+r
		}
		return nodes, refs
	}
	return 1, 0
}

// batchSource is what planning the batched loops needs from the
// compiler.
type batchSource struct {
	loops []batchSite
	crefs []*cref
	ivars []string // loop variable names by slot
}

// planner plans the batched loops of a program.
type planner struct {
	prog *ir.Program
	*batchSource
	scratch []batchScalar // per scalar, batchPlan's working state
}

// scalar returns the index of the named scalar.
func (pl *planner) scalar(name string) (int, bool) {
	for i, s := range pl.prog.Scalars {
		if s.Name == name {
			return i, true
		}
	}
	return 0, false
}

// batchPlans are a program's batched loops.
type batchPlans struct {
	loops   []*batchLoop // by batch id; nil where the loop runs per iteration
	bufLen  int          // chunk-buffer elements the largest plan needs
	maxRefs int          // references of the plan with the most
}

// plans returns the program's batched loops, planning them on first use.
func (cp *Compiled) plans() *batchPlans {
	cp.batchOnce.Do(func() {
		src := cp.src
		if src == nil {
			return
		}
		cp.src = nil
		pl := &planner{prog: cp.prog, batchSource: src, scratch: make([]batchScalar, len(cp.prog.Scalars))}
		// One allocation per kind of plan part, sized for every loop.
		var nodes, refs, stmts int
		for _, site := range src.loops {
			stmts += len(site.loop.Body)
			refs += int(site.refs[1] - site.refs[0])
			for _, s := range site.loop.Body {
				n, _ := stmtSize(s)
				nodes += n
			}
		}
		plans := make([]batchLoop, len(src.loops))
		arena := batchLoop{nodes: make([]bnode, nodes), refs: make([]bref, refs),
			stmts: make([]bstmt, stmts), privs: make([]int32, stmts)}
		var loops []*batchLoop
		for id, site := range src.loops {
			b := &plans[id]
			n := len(site.loop.Body)
			nr := site.refs[1] - site.refs[0]
			b.refs, arena.refs = arena.refs[:0:nr], arena.refs[nr:]
			b.stmts, arena.stmts = arena.stmts[:0:n], arena.stmts[n:]
			b.privs, arena.privs = arena.privs[:0:n], arena.privs[n:]
			b.nodes = arena.nodes[:0]
			if !pl.batchPlan(b, site) {
				continue
			}
			arena.nodes = arena.nodes[len(b.nodes):]
			if loops == nil {
				loops = make([]*batchLoop, len(src.loops))
			}
			loops[id] = b
			cp.batch.bufLen = max(cp.batch.bufLen, (b.stack+len(b.privs))*batchChunk)
			cp.batch.maxRefs = max(cp.batch.maxRefs, len(b.refs))
		}
		cp.batch.loops = loops
	})
	return &cp.batch
}

// batchLoop is the plan of one batched loop.
type batchLoop struct {
	site  batchSite
	step  int64
	refs  []bref
	nodes []bnode
	stmts []bstmt
	privs []int32 // the scalar of each private buffer
	stack int     // stack buffers, which precede the private ones
	flops int64   // per iteration
	reads int64   // input reads per iteration
}

// bref is an array reference of a batched loop. A loop's refs are in
// evaluation order: each statement's right-hand side left to right,
// then its target. That is the order of the per-iteration engine's
// accesses, in which Hierarchy.Strides simulates them.
type bref struct {
	cr    *cref
	delta int64 // element offset from one iteration to the next
	write bool
}

type bkind uint8

const (
	bConst  bkind = iota // val
	bScalar              // a scalar the loop does not write
	bOuter               // an enclosing loop's variable
	bIvar                // the loop's own variable
	bPriv                // a private scalar's buffer
	bLoad                // refs[idx]
	bNeg                 // -a
	bBin                 // a op b
	bCall                // fn(a[, b])
)

// bnode is an expression node of a batched loop. Its chunk of values
// goes to buffer out: a stack position, or -1-p for private buffer p.
type bnode struct {
	val  float64
	idx  int32 // scalar, loop-variable slot, private buffer or ref
	a, b int32 // operand nodes; b is -1 for a unary call
	out  int32
	kind bkind
	op   uint8 // ir.Op
	fn   callFn
}

type skind uint8

const (
	sStore  skind = iota // refs[dst] = root
	sPriv                // private buffer dst = root
	sReduce              // scalar dst = dst ops[0] args[0] ops[1] args[1] ...
)

// bstmt is a statement of a batched loop. Its value goes to dst: a
// reference for sStore, a private buffer for sPriv and a scalar for
// sReduce. A root of -1 is a read: the input value at position seq of
// each iteration's reads.
type bstmt struct {
	kind  skind
	nargs uint8
	root  int32
	dst   int32
	seq   int32
	ops   [maxReduceArgs]uint8 // ir.Op
	args  [maxReduceArgs]int32
}

// batchScalar is batchPlan's state of one scalar.
type batchScalar struct {
	written bool // some statement of the loop writes it
	state   uint8
	priv    int32
}

const (
	untouched uint8 = iota
	private         // written before any read in the iteration
	reduction       // folded by its one statement
)

// batchPlan plans site's loop in b, whose slices have room for it, and
// reports false when the loop must run per iteration.
func (pl *planner) batchPlan(b *batchLoop, site batchSite) bool {
	f := site.loop
	b.site, b.step = site, int64(f.StepOr1())
	if b.step > batchMax {
		return false
	}
	clear(pl.scratch)
	for _, s := range f.Body {
		var r *ir.Ref
		switch s := s.(type) {
		case *ir.Assign:
			r = s.LHS
		case *ir.ReadInput:
			r = s.Target
		}
		if si, ok := pl.scalar(r.Name); ok && r.IsScalar() {
			pl.scratch[si].written = true
		}
	}
	for _, s := range f.Body {
		if !pl.bstmt(b, s) {
			return false
		}
	}
	// Every reference to a written array must address the element the
	// write does, and that element must move every iteration: then each
	// iteration reads and writes only its own elements.
	for _, w := range b.refs {
		if !w.write {
			continue
		}
		for _, r := range b.refs {
			if r.cr.ai == w.cr.ai && (r.cr.f != w.cr.f || r.delta == 0) {
				return false
			}
		}
	}
	return true
}

func (pl *planner) bstmt(b *batchLoop, s ir.Stmt) bool {
	switch s := s.(type) {
	case *ir.ReadInput:
		b.reads++
		return pl.bstore(b, s.Target, bstmt{root: -1, seq: int32(b.reads - 1)})
	case *ir.Assign:
		if si, ok := pl.scalar(s.LHS.Name); ok && s.LHS.IsScalar() && pl.scratch[si].state == untouched {
			var args [maxReduceArgs]ir.Expr
			st := bstmt{kind: sReduce, dst: int32(si)}
			if n := spine(s.RHS, s.LHS.Name, &st.ops, &args); n >= 0 {
				st.nargs = uint8(n)
				for i, a := range args[:n] {
					if ir.Op(st.ops[i]).IsArith() {
						b.flops++
					}
					k, ok := pl.bexpr(b, a, i)
					if !ok {
						return false
					}
					st.args[i] = k
				}
				pl.scratch[si].state = reduction
				b.stmts = append(b.stmts, st)
				return true
			}
		}
		root, ok := pl.bexpr(b, s.RHS, 0)
		return ok && pl.bstore(b, s.LHS, bstmt{root: root})
	}
	return false
}

// spine splits x = s op1 e1 op2 e2 ... into its operators and operands
// when its leftmost leaf is the scalar s, and returns how many there
// are, or -1.
func spine(x ir.Expr, s string, ops *[maxReduceArgs]uint8, args *[maxReduceArgs]ir.Expr) int {
	n := 0
	for {
		e, isBin := x.(*ir.Bin)
		if !isBin {
			break
		}
		if e.Op == ir.And || e.Op == ir.Or || n == maxReduceArgs {
			return -1
		}
		ops[n], args[n], x = uint8(e.Op), e.R, e.L
		n++
	}
	switch x := x.(type) {
	case *ir.Var:
		if x.Name != s {
			return -1
		}
	case *ir.Ref:
		if !x.IsScalar() || x.Name != s {
			return -1
		}
	default:
		return -1
	}
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
		args[i], args[j] = args[j], args[i]
	}
	return n
}

// bstore finishes st, a statement whose value goes to r.
func (pl *planner) bstore(b *batchLoop, r *ir.Ref, st bstmt) bool {
	if r.IsScalar() {
		si, _ := pl.scalar(r.Name)
		sc := &pl.scratch[si]
		switch sc.state {
		case reduction:
			return false
		case untouched:
			sc.state, sc.priv = private, int32(len(b.privs))
			b.privs = append(b.privs, int32(si))
		}
		st.kind, st.dst = sPriv, sc.priv
		if st.root >= 0 {
			b.nodes[st.root].out = -1 - sc.priv // the value goes straight to the buffer
		}
	} else {
		k, ok := pl.bref(b, r, true)
		if !ok {
			return false
		}
		st.kind, st.dst = sStore, k
	}
	b.stmts = append(b.stmts, st)
	return true
}

// bref adds an array reference, which must be on the fast path with
// small constants and coefficients.
func (pl *planner) bref(b *batchLoop, r *ir.Ref, write bool) (int32, bool) {
	var cr *cref
	for _, x := range pl.crefs[b.site.refs[0]:b.site.refs[1]] {
		if x.ref == r {
			cr = x
			break
		}
	}
	if cr == nil || !cr.fast || cr.f.st > batchMax {
		return -1, false
	}
	f := &cr.f
	for _, v := range [4]int64{f.c0, f.k0, f.c1, f.k1} {
		if v < -batchMax || v > batchMax {
			return -1, false
		}
	}
	var d0, d1 int64
	if f.s0 == b.site.slot {
		d0 = f.k0
	}
	if f.s1 == b.site.slot {
		d1 = f.k1
	}
	unit := d0 + d1*f.st
	if math.Abs(float64(unit)*float64(b.step)) > 1<<62 {
		return -1, false
	}
	b.refs = append(b.refs, bref{cr: cr, delta: unit * b.step, write: write})
	return int32(len(b.refs) - 1), true
}

// bexpr adds the nodes of x, whose values go to stack position depth.
func (pl *planner) bexpr(b *batchLoop, x ir.Expr, depth int) (int32, bool) {
	nd := bnode{out: int32(depth), b: -1}
	b.stack = max(b.stack, depth+1)
	ok := true
	switch x := x.(type) {
	case *ir.Num:
		nd.kind, nd.val = bConst, x.Val
	case *ir.Var:
		nd, ok = pl.bname(b, x.Name, nd)
	case *ir.Ref:
		if x.IsScalar() {
			nd, ok = pl.bname(b, x.Name, nd)
			break
		}
		nd.kind = bLoad
		nd.idx, ok = pl.bref(b, x, false)
	case *ir.Neg:
		nd.kind = bNeg
		nd.a, ok = pl.bexpr(b, x.X, depth)
	case *ir.Bin:
		if x.Op == ir.And || x.Op == ir.Or {
			return -1, false
		}
		nd.kind, nd.op = bBin, uint8(x.Op)
		if x.Op.IsArith() {
			b.flops++
		}
		if nd.a, ok = pl.bexpr(b, x.L, depth); ok {
			nd.b, ok = pl.bexpr(b, x.R, depth+1)
		}
	case *ir.Call:
		fn, known := callFns[x.Fn]
		if !known {
			return -1, false
		}
		nd.kind, nd.fn = bCall, fn.fn
		b.flops += fn.flops
		if nd.a, ok = pl.bexpr(b, x.Args[0], depth); ok && len(x.Args) == 2 {
			nd.b, ok = pl.bexpr(b, x.Args[1], depth+1)
		}
	default:
		ok = false
	}
	if !ok {
		return -1, false
	}
	b.nodes = append(b.nodes, nd)
	return int32(len(b.nodes) - 1), true
}

// bname resolves a name read as a value, in the order compiler.expr does.
func (pl *planner) bname(b *batchLoop, name string, nd bnode) (bnode, bool) {
	if si, ok := pl.scalar(name); ok {
		switch sc := pl.scratch[si]; {
		case sc.state == private:
			nd.kind, nd.idx = bPriv, sc.priv
		case sc.state == reduction || sc.written:
			return nd, false // a reduction's partial value, or last iteration's
		default:
			nd.kind, nd.idx = bScalar, int32(si)
		}
		return nd, true
	}
	if slot := slices.Index(pl.ivars, name); slot >= 0 {
		nd.kind, nd.idx = bOuter, int32(slot)
		if slot == int(b.site.slot) {
			nd.kind = bIvar
		}
		return nd, true
	}
	if v, ok := pl.prog.Consts[name]; ok {
		nd.kind, nd.val = bConst, float64(v)
		return nd, true
	}
	return nd, false
}

// run executes the loop from l to h a chunk at a time and reports true,
// or reports false, having run nothing, when the run-time prechecks
// fail.
func (b *batchLoop) run(env *cenv, l, h int64) bool {
	if l > h || l < -batchMax || h > batchMax {
		return false
	}
	trip := (h-l)/b.step + 1
	if trip > env.stepCap-env.steps {
		return false
	}
	slot, iv := b.site.slot, env.ivars
	last := l + (trip-1)*b.step
	// Subscripts are linear in the loop variable, so a reference in
	// bounds at both ends is in bounds at every iteration.
	for _, v := range [2]int64{l, last} {
		iv[slot] = v
		for i := range b.refs {
			if _, ok := b.refs[i].cr.f.at(iv); !ok {
				return false
			}
		}
	}
	ch := chunk{env: env, b: b}
	var acc []sim.Stride
	if env.hier != nil {
		acc = b.strides(env, l)
	}
	for done := int64(0); done < trip; {
		first := env.steps + 1
		if first&pollMask == 0 {
			env.steps = first
			env.poll()
		}
		// A chunk ends before the next poll step.
		n := min(trip-done, batchChunk, (first|pollMask)+1-first)
		ch.n, ch.v0 = int(n), l+done*b.step
		iv[slot] = ch.v0
		for i := range b.stmts {
			ch.stmt(&b.stmts[i])
		}
		for p, si := range b.privs {
			env.scalars[si] = ch.buf(int32(-1 - p))[n-1]
		}
		if acc != nil {
			env.hier.Strides(acc, int(n))
			env.hier.AddFlops(n * b.flops)
			for i := range acc {
				acc[i].Addr += n * acc[i].Step
			}
		}
		env.steps = first - 1 + n
		env.flops += n * b.flops
		env.inputSeq += n * b.reads
		done += n
	}
	iv[slot] = last
	return true
}

// strides returns the loop's accesses from loop variable value l on, in
// env.strides.
func (b *batchLoop) strides(env *cenv, l int64) []sim.Stride {
	env.ivars[b.site.slot] = l
	acc := env.strides[:len(b.refs)]
	for i := range b.refs {
		r := &b.refs[i]
		off, _ := r.cr.f.at(env.ivars)
		acc[i] = sim.Stride{Addr: env.arrays[r.cr.ai].base + off*ir.ElemSize, Step: r.delta * ir.ElemSize,
			Size: ir.ElemSize, Write: r.write, Site: r.cr.site}
	}
	return acc
}

// chunk is one chunk of a batched loop: n iterations from loop variable
// value v0.
type chunk struct {
	env *cenv
	b   *batchLoop
	n   int
	v0  int64
}

// buf returns buffer k: a stack position, or -1-p for private buffer p.
func (ch *chunk) buf(k int32) []float64 {
	if k < 0 {
		k = int32(ch.b.stack) - 1 - k
	}
	o := int(k) * batchChunk
	return ch.env.bufs[o : o+ch.n : o+ch.n]
}

func (ch *chunk) stmt(s *bstmt) {
	env := ch.env
	switch s.kind {
	case sStore:
		r := &ch.b.refs[s.dst]
		off, _ := r.cr.f.at(env.ivars)
		data := env.arrays[r.cr.ai].data
		if s.root < 0 {
			seq := env.inputSeq + int64(s.seq)
			for t := 0; t < ch.n; t++ {
				data[off] = inputValue(seq)
				seq += ch.b.reads
				off += r.delta
			}
			return
		}
		x, u := ch.eval(s.root)
		switch {
		case x == nil:
			for t := 0; t < ch.n; t++ {
				data[off] = u
				off += r.delta
			}
		case r.delta == 1:
			copy(data[off:off+int64(ch.n)], x)
		default:
			for _, v := range x {
				data[off] = v
				off += r.delta
			}
		}
	case sPriv:
		dst := ch.buf(-1 - s.dst)
		if s.root < 0 {
			seq := env.inputSeq + int64(s.seq)
			for t := range dst {
				dst[t] = inputValue(seq)
				seq += ch.b.reads
			}
			return
		}
		x, u := ch.eval(s.root)
		switch {
		case x == nil:
			for t := range dst {
				dst[t] = u
			}
		case &x[0] != &dst[0]:
			copy(dst, x)
		}
	case sReduce:
		ch.reduce(s)
	}
}

// reduce folds a reduction's operands into its scalar, iteration by
// iteration and left to right, as the per-iteration loop does.
func (ch *chunk) reduce(s *bstmt) {
	acc := ch.env.scalars[s.dst]
	if s.nargs == 1 {
		x, u := ch.eval(s.args[0])
		switch op := ir.Op(s.ops[0]); {
		case x == nil:
			for t := 0; t < ch.n; t++ {
				acc = binop(op, acc, u)
			}
		case op == ir.Add:
			for _, v := range x {
				acc += v
			}
		default:
			for _, v := range x {
				acc = binop(op, acc, v)
			}
		}
		ch.env.scalars[s.dst] = acc
		return
	}
	var xs [maxReduceArgs][]float64
	var us [maxReduceArgs]float64
	for i, a := range s.args[:s.nargs] {
		xs[i], us[i] = ch.eval(a)
	}
	for t := 0; t < ch.n; t++ {
		for i, op := range s.ops[:s.nargs] {
			v := us[i]
			if xs[i] != nil {
				v = xs[i][t]
			}
			acc = binop(ir.Op(op), acc, v)
		}
	}
	ch.env.scalars[s.dst] = acc
}

// eval computes node k over the chunk. It returns the node's values, or
// nil and the value every iteration shares. The values may be a slice
// of an array, valid until the statement stores.
func (ch *chunk) eval(k int32) ([]float64, float64) {
	nd := &ch.b.nodes[k]
	env := ch.env
	switch nd.kind {
	case bConst:
		return nil, nd.val
	case bScalar:
		return nil, env.scalars[nd.idx]
	case bOuter:
		return nil, float64(env.ivars[nd.idx])
	case bPriv:
		return ch.buf(-1 - nd.idx), 0
	case bIvar:
		out := ch.buf(nd.out)
		v := ch.v0
		for t := range out {
			out[t] = float64(v)
			v += ch.b.step
		}
		return out, 0
	case bLoad:
		r := &ch.b.refs[nd.idx]
		off, _ := r.cr.f.at(env.ivars)
		data := env.arrays[r.cr.ai].data
		switch r.delta {
		case 0:
			return nil, data[off]
		case 1:
			return data[off : off+int64(ch.n)], 0
		}
		out := ch.buf(nd.out)
		for t := range out {
			out[t] = data[off]
			off += r.delta
		}
		return out, 0
	case bNeg:
		x, u := ch.eval(nd.a)
		if x == nil {
			return nil, -u
		}
		out := ch.buf(nd.out)
		x = x[:len(out)]
		for t := range out {
			out[t] = -x[t]
		}
		return out, 0
	case bBin:
		x, u := ch.eval(nd.a)
		y, w := ch.eval(nd.b)
		if x == nil && y == nil {
			return nil, binop(ir.Op(nd.op), u, w)
		}
		out := ch.buf(nd.out)
		binops(ir.Op(nd.op), out, x, u, y, w)
		return out, 0
	default: // bCall
		x, u := ch.eval(nd.a)
		var y []float64
		var w float64
		if nd.b >= 0 {
			y, w = ch.eval(nd.b)
		}
		if x == nil && y == nil {
			return nil, callValue(nd.fn, u, w)
		}
		out := ch.buf(nd.out)
		for t := range out {
			a, b := u, w
			if x != nil {
				a = x[t]
			}
			if y != nil {
				b = y[t]
			}
			out[t] = callValue(nd.fn, a, b)
		}
		return out, 0
	}
}

// binop applies a binary operator other than && and ||.
func binop(op ir.Op, a, b float64) float64 {
	switch op {
	case ir.Lt:
		return b2f(a < b)
	case ir.Le:
		return b2f(a <= b)
	case ir.Gt:
		return b2f(a > b)
	case ir.Ge:
		return b2f(a >= b)
	case ir.Eq:
		return b2f(a == b)
	case ir.Ne:
		return b2f(a != b)
	}
	return arith(op, a, b)
}

// binops sets out to x op y elementwise, where a nil x or y stands for
// u or w in every iteration; not both are nil. out may be x.
func binops(op ir.Op, out, x []float64, u float64, y []float64, w float64) {
	switch {
	case !op.IsArith():
		for t := range out {
			a, b := u, w
			if x != nil {
				a = x[t]
			}
			if y != nil {
				b = y[t]
			}
			out[t] = binop(op, a, b)
		}
	case x != nil && y != nil:
		x, y = x[:len(out)], y[:len(out)]
		switch op {
		case ir.Add:
			for t := range out {
				out[t] = x[t] + y[t]
			}
		case ir.Sub:
			for t := range out {
				out[t] = x[t] - y[t]
			}
		case ir.Mul:
			for t := range out {
				out[t] = x[t] * y[t]
			}
		default:
			for t := range out {
				out[t] = x[t] / y[t]
			}
		}
	case x != nil:
		x = x[:len(out)]
		switch op {
		case ir.Add:
			for t := range out {
				out[t] = x[t] + w
			}
		case ir.Sub:
			for t := range out {
				out[t] = x[t] - w
			}
		case ir.Mul:
			for t := range out {
				out[t] = x[t] * w
			}
		default:
			for t := range out {
				out[t] = x[t] / w
			}
		}
	default:
		y = y[:len(out)]
		switch op {
		case ir.Add:
			for t := range out {
				out[t] = u + y[t]
			}
		case ir.Sub:
			for t := range out {
				out[t] = u - y[t]
			}
		case ir.Mul:
			for t := range out {
				out[t] = u * y[t]
			}
		default:
			for t := range out {
				out[t] = u / y[t]
			}
		}
	}
}
