// Package ir defines the loop-nest intermediate representation used by
// the bandwidth analyses and transformations.
//
// A Program is a sequence of top-level Nests (candidate units for loop
// fusion), each holding a statement list — typically one for-loop nest —
// over declared arrays and scalars. Loops are Fortran-style with
// inclusive bounds ("for i = lo, hi"), matching the paper's examples.
// Arrays are stored column-major (first subscript fastest), matching the
// Fortran kernels the paper measures, so "a[i,j]" traversed with i in
// the inner loop is a stride-one access.
//
// Scalars and loop variables are register-resident and generate no
// memory traffic; only array references touch the simulated memory
// hierarchy. This matches the paper's model in which scalar data (such
// as "sum" in Figure 4) does not consume memory bandwidth.
package ir

import (
	"fmt"
	"sort"
)

// ElemSize is the size in bytes of every array element (double
// precision, as in all of the paper's kernels).
const ElemSize = 8

// Program is a whole program: declarations plus an ordered sequence of
// top-level nests.
type Program struct {
	Name    string
	Consts  map[string]int64 // named integer constants (e.g. N)
	Arrays  []*Array
	Scalars []*Scalar
	Nests   []*Nest
}

// Array declares a column-major array of float64 elements.
type Array struct {
	Name string
	Dims []int // extents; len(Dims) is the rank
}

// Size returns the number of elements in the array.
func (a *Array) Size() int {
	n := 1
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// Bytes returns the array's footprint in bytes.
func (a *Array) Bytes() int64 { return int64(a.Size()) * ElemSize }

// Scalar declares a register-resident float64 variable.
type Scalar struct {
	Name string
	Init float64
}

// Nest is a top-level fusion candidate: a labeled statement list,
// usually a single for-loop.
type Nest struct {
	Label string
	Body  []Stmt
}

// OuterLoop returns the nest's single outermost for-loop if the nest
// body is exactly one For statement, else nil.
func (n *Nest) OuterLoop() *For {
	if len(n.Body) == 1 {
		if f, ok := n.Body[0].(*For); ok {
			return f
		}
	}
	return nil
}

// --- Statements -----------------------------------------------------------

// Stmt is a statement node.
type Stmt interface{ isStmt() }

// For is a Fortran-style loop: for Var = Lo, Hi [step Step] — inclusive
// bounds, integer induction variable.
type For struct {
	Var    string
	Lo, Hi Expr
	Step   int // 0 means 1
	Body   []Stmt
}

// StepOr1 returns the loop step, defaulting to 1.
func (f *For) StepOr1() int {
	if f.Step == 0 {
		return 1
	}
	return f.Step
}

// Assign stores the value of RHS into LHS (array element or scalar).
type Assign struct {
	LHS *Ref
	RHS Expr
}

// If executes Then when Cond is non-zero, else Else.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// ReadInput models external input (the paper's "read(a[i,j])"): it
// stores a deterministic pseudo-input value into Target, generating a
// memory write but no flops.
type ReadInput struct {
	Target *Ref
}

// Print consumes a value (keeps results live so computation cannot be
// considered dead).
type Print struct {
	Arg Expr
}

func (*For) isStmt()       {}
func (*Assign) isStmt()    {}
func (*If) isStmt()        {}
func (*ReadInput) isStmt() {}
func (*Print) isStmt()     {}

// --- Expressions ----------------------------------------------------------

// Expr is an expression node evaluating to float64 (index expressions
// are evaluated in integer arithmetic by the interpreter).
type Expr interface{ isExpr() }

// Num is a literal.
type Num struct{ Val float64 }

// Var references a scalar, a named constant, or a loop variable.
type Var struct{ Name string }

// SiteID identifies one memory-reference site for traffic attribution.
// Zero means "unassigned"; AssignSites hands out IDs starting at 1.
type SiteID uint32

// Ref references an array element (Index per dimension) or, with a nil
// Index, a scalar; as an Expr it is a load, as Assign.LHS a store.
type Ref struct {
	Name  string
	Index []Expr
	// Site is the reference's attribution site. Clone preserves it, so
	// refs duplicated by a transform share their source site and their
	// traffic aggregates; refs synthesized with a zero Site receive a
	// fresh ID at the next AssignSites.
	Site SiteID
}

// IsScalar reports whether the reference has no subscripts.
func (r *Ref) IsScalar() bool { return len(r.Index) == 0 }

// Op enumerates binary operators.
type Op int

// Binary operators. Arithmetic ops on floats count as one flop each;
// comparisons and logical ops are free (they compile to non-float
// instructions on the modelled machines).
const (
	Add Op = iota
	Sub
	Mul
	Div
	Lt
	Le
	Gt
	Ge
	Eq
	Ne
	And
	Or
)

var opNames = [...]string{"+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=", "&&", "||"}

// String returns the surface syntax of the operator.
func (o Op) String() string { return opNames[o] }

// IsArith reports whether the operator is a floating-point arithmetic
// operation (counts as a flop).
func (o Op) IsArith() bool { return o <= Div }

// Bin is a binary operation.
type Bin struct {
	Op   Op
	L, R Expr
}

// Neg is unary negation (free: sign flip).
type Neg struct{ X Expr }

// Call invokes a named intrinsic: f, g, sqrt, sin, cos, abs, min, max
// or mod (see intrinsicArity). The executors define their values and
// flop costs.
type Call struct {
	Fn   string
	Args []Expr
}

// intrinsicArity is the argument count of every intrinsic the
// executors implement; Validate rejects any other call, even in code
// that never runs.
var intrinsicArity = map[string]int{
	"f": 2, "g": 2, "sqrt": 1, "sin": 1, "cos": 1, "abs": 1, "min": 2, "max": 2, "mod": 2,
}

func (*Num) isExpr()  {}
func (*Var) isExpr()  {}
func (*Ref) isExpr()  {}
func (*Bin) isExpr()  {}
func (*Neg) isExpr()  {}
func (*Call) isExpr() {}

// --- Lookup helpers -------------------------------------------------------

// ArrayByName returns the declaration of the named array, or nil.
func (p *Program) ArrayByName(name string) *Array {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ScalarByName returns the declaration of the named scalar, or nil.
func (p *Program) ScalarByName(name string) *Scalar {
	for _, s := range p.Scalars {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Const returns the value of a named constant.
func (p *Program) Const(name string) (int64, bool) {
	v, ok := p.Consts[name]
	return v, ok
}

// TotalArrayBytes returns the combined footprint of all declared arrays.
func (p *Program) TotalArrayBytes() int64 {
	var n int64
	for _, a := range p.Arrays {
		n += a.Bytes()
	}
	return n
}

// ArraysAccessed returns the sorted names of arrays referenced anywhere
// in the nest (reads or writes).
func (n *Nest) ArraysAccessed(p *Program) []string {
	set := map[string]bool{}
	var visitExpr func(Expr)
	var visitStmts func([]Stmt)
	visitRef := func(r *Ref) {
		if r == nil {
			return
		}
		if !r.IsScalar() && p.ArrayByName(r.Name) != nil {
			set[r.Name] = true
		}
		for _, ix := range r.Index {
			visitExpr(ix)
		}
	}
	visitExpr = func(e Expr) {
		switch e := e.(type) {
		case *Ref:
			visitRef(e)
		case *Bin:
			visitExpr(e.L)
			visitExpr(e.R)
		case *Neg:
			visitExpr(e.X)
		case *Call:
			for _, a := range e.Args {
				visitExpr(a)
			}
		}
	}
	visitStmts = func(ss []Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *For:
				visitExpr(s.Lo)
				visitExpr(s.Hi)
				visitStmts(s.Body)
			case *Assign:
				visitRef(s.LHS)
				visitExpr(s.RHS)
			case *If:
				visitExpr(s.Cond)
				visitStmts(s.Then)
				visitStmts(s.Else)
			case *ReadInput:
				visitRef(s.Target)
			case *Print:
				visitExpr(s.Arg)
			}
		}
	}
	visitStmts(n.Body)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WalkRefs calls fn for every array reference in the statement list,
// with isWrite true for store targets (Assign LHS and ReadInput targets).
func WalkRefs(stmts []Stmt, p *Program, fn func(r *Ref, isWrite bool)) {
	var visitExpr func(Expr)
	var visit func([]Stmt)
	emit := func(r *Ref, w bool) {
		if r == nil || r.IsScalar() || p.ArrayByName(r.Name) == nil {
			return
		}
		fn(r, w)
	}
	visitExpr = func(e Expr) {
		switch e := e.(type) {
		case *Ref:
			emit(e, false)
			for _, ix := range e.Index {
				visitExpr(ix)
			}
		case *Bin:
			visitExpr(e.L)
			visitExpr(e.R)
		case *Neg:
			visitExpr(e.X)
		case *Call:
			for _, a := range e.Args {
				visitExpr(a)
			}
		}
	}
	visit = func(ss []Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *For:
				visitExpr(s.Lo)
				visitExpr(s.Hi)
				visit(s.Body)
			case *Assign:
				emit(s.LHS, true)
				for _, ix := range s.LHS.Index {
					visitExpr(ix)
				}
				visitExpr(s.RHS)
			case *If:
				visitExpr(s.Cond)
				visit(s.Then)
				visit(s.Else)
			case *ReadInput:
				emit(s.Target, true)
				for _, ix := range s.Target.Index {
					visitExpr(ix)
				}
			case *Print:
				visitExpr(s.Arg)
			}
		}
	}
	visit(stmts)
}

// ReadsArray reports whether the nest reads the named array, and
// WritesArray whether it writes it.
func (n *Nest) ReadsArray(p *Program, name string) bool {
	found := false
	WalkRefs(n.Body, p, func(r *Ref, w bool) {
		if !w && r.Name == name {
			found = true
		}
	})
	return found
}

// WritesArray reports whether the nest writes the named array.
func (n *Nest) WritesArray(p *Program, name string) bool {
	found := false
	WalkRefs(n.Body, p, func(r *Ref, w bool) {
		if w && r.Name == name {
			found = true
		}
	})
	return found
}

// NestByLabel returns the nest with the given label, or nil.
func (p *Program) NestByLabel(label string) *Nest {
	for _, n := range p.Nests {
		if n.Label == label {
			return n
		}
	}
	return nil
}

// NestIndex returns the position of the nest in the program, or -1.
func (p *Program) NestIndex(n *Nest) int {
	for i, m := range p.Nests {
		if m == n {
			return i
		}
	}
	return -1
}

// --- Validation -----------------------------------------------------------

// Validate checks structural well-formedness: unique declaration names,
// resolvable references, subscript counts matching array rank, loop
// variables not shadowing declarations, and positive array extents.
func (p *Program) Validate() error {
	names := map[string]string{} // name -> kind
	declare := func(name, kind string) error {
		if name == "" {
			return fmt.Errorf("ir: empty %s name", kind)
		}
		if prev, ok := names[name]; ok {
			return fmt.Errorf("ir: %s %q redeclares %s", kind, name, prev)
		}
		names[name] = kind
		return nil
	}
	for c := range p.Consts {
		if err := declare(c, "const"); err != nil {
			return err
		}
	}
	for _, a := range p.Arrays {
		if err := declare(a.Name, "array"); err != nil {
			return err
		}
		if len(a.Dims) == 0 {
			return fmt.Errorf("ir: array %q has no dimensions", a.Name)
		}
		for _, d := range a.Dims {
			if d <= 0 {
				return fmt.Errorf("ir: array %q has non-positive extent %d", a.Name, d)
			}
		}
	}
	for _, s := range p.Scalars {
		if err := declare(s.Name, "scalar"); err != nil {
			return err
		}
	}
	seenLabels := map[string]bool{}
	for _, n := range p.Nests {
		if n.Label == "" {
			return fmt.Errorf("ir: nest without label")
		}
		if seenLabels[n.Label] {
			return fmt.Errorf("ir: duplicate nest label %q", n.Label)
		}
		seenLabels[n.Label] = true
		if err := p.validateStmts(n.Body, map[string]bool{}, n.Label); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) validateStmts(ss []Stmt, loopVars map[string]bool, where string) error {
	for _, s := range ss {
		switch s := s.(type) {
		case *For:
			if s.Var == "" {
				return fmt.Errorf("ir: %s: for-loop without variable", where)
			}
			if _, isDecl := p.Consts[s.Var]; isDecl || p.ArrayByName(s.Var) != nil || p.ScalarByName(s.Var) != nil {
				return fmt.Errorf("ir: %s: loop variable %q shadows a declaration", where, s.Var)
			}
			if loopVars[s.Var] {
				return fmt.Errorf("ir: %s: loop variable %q shadows an enclosing loop", where, s.Var)
			}
			if s.Lo == nil || s.Hi == nil {
				return fmt.Errorf("ir: %s: for %s missing bounds", where, s.Var)
			}
			if err := p.validateExpr(s.Lo, loopVars, where); err != nil {
				return err
			}
			if err := p.validateExpr(s.Hi, loopVars, where); err != nil {
				return err
			}
			if s.Step < 0 {
				return fmt.Errorf("ir: %s: negative step on loop %s", where, s.Var)
			}
			loopVars[s.Var] = true
			if err := p.validateStmts(s.Body, loopVars, where); err != nil {
				return err
			}
			delete(loopVars, s.Var)
		case *Assign:
			if err := p.validateRef(s.LHS, loopVars, where, true); err != nil {
				return err
			}
			if err := p.validateExpr(s.RHS, loopVars, where); err != nil {
				return err
			}
		case *If:
			if err := p.validateExpr(s.Cond, loopVars, where); err != nil {
				return err
			}
			if err := p.validateStmts(s.Then, loopVars, where); err != nil {
				return err
			}
			if err := p.validateStmts(s.Else, loopVars, where); err != nil {
				return err
			}
		case *ReadInput:
			if err := p.validateRef(s.Target, loopVars, where, true); err != nil {
				return err
			}
		case *Print:
			if err := p.validateExpr(s.Arg, loopVars, where); err != nil {
				return err
			}
		default:
			return fmt.Errorf("ir: %s: unknown statement %T", where, s)
		}
	}
	return nil
}

func (p *Program) validateRef(r *Ref, loopVars map[string]bool, where string, isStore bool) error {
	if r == nil {
		return fmt.Errorf("ir: %s: nil reference", where)
	}
	if r.IsScalar() {
		if p.ScalarByName(r.Name) == nil {
			if loopVars[r.Name] {
				if isStore {
					return fmt.Errorf("ir: %s: cannot assign to loop variable %q", where, r.Name)
				}
				return nil
			}
			if _, ok := p.Consts[r.Name]; ok {
				if isStore {
					return fmt.Errorf("ir: %s: cannot assign to constant %q", where, r.Name)
				}
				return nil
			}
			return fmt.Errorf("ir: %s: undeclared scalar %q", where, r.Name)
		}
		return nil
	}
	a := p.ArrayByName(r.Name)
	if a == nil {
		return fmt.Errorf("ir: %s: undeclared array %q", where, r.Name)
	}
	if len(r.Index) != len(a.Dims) {
		return fmt.Errorf("ir: %s: array %q has rank %d but %d subscripts given",
			where, r.Name, len(a.Dims), len(r.Index))
	}
	for _, ix := range r.Index {
		if err := p.validateExpr(ix, loopVars, where); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) validateExpr(e Expr, loopVars map[string]bool, where string) error {
	switch e := e.(type) {
	case nil:
		return fmt.Errorf("ir: %s: nil expression", where)
	case *Num:
		return nil
	case *Var:
		if loopVars[e.Name] {
			return nil
		}
		if _, ok := p.Consts[e.Name]; ok {
			return nil
		}
		if p.ScalarByName(e.Name) != nil {
			return nil
		}
		return fmt.Errorf("ir: %s: undeclared variable %q", where, e.Name)
	case *Ref:
		return p.validateRef(e, loopVars, where, false)
	case *Bin:
		if err := p.validateExpr(e.L, loopVars, where); err != nil {
			return err
		}
		return p.validateExpr(e.R, loopVars, where)
	case *Neg:
		return p.validateExpr(e.X, loopVars, where)
	case *Call:
		n, ok := intrinsicArity[e.Fn]
		if !ok {
			return fmt.Errorf("ir: %s: unknown intrinsic %q", where, e.Fn)
		}
		if len(e.Args) != n {
			return fmt.Errorf("ir: %s: intrinsic %s expects %d args, got %d", where, e.Fn, n, len(e.Args))
		}
		for _, a := range e.Args {
			if err := p.validateExpr(a, loopVars, where); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("ir: %s: unknown expression %T", where, e)
	}
}
