package lang

import (
	"fmt"
	"strconv"

	"repro/internal/ir"
)

// Parse parses source text into a validated IR program.
func Parse(src string) (*ir.Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, fmt.Errorf("lang: %w", err)
	}
	p := &parser{toks: toks}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, fmt.Errorf("lang: %w", err)
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("lang: %w", err)
	}
	return prog, nil
}

// MustParse parses or panics; for tests and embedded kernel sources.
func MustParse(src string) *ir.Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	toks []token
	pos  int
	prog *ir.Program
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	t := p.cur()
	if t.kind != tokPunct || t.text != s {
		return p.errf(t, "expected %q, found %s", s, t)
	}
	p.advance()
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.cur()
	if t.kind != tokIdent || t.text != kw {
		return p.errf(t, "expected %q, found %s", kw, t)
	}
	p.advance()
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf(t, "expected identifier, found %s", t)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && t.text == kw
}

func (p *parser) atPunct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) parseProgram() (*ir.Program, error) {
	if err := p.expectKeyword("program"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	p.prog = ir.NewProgram(name)
	for {
		t := p.cur()
		if t.kind == tokEOF {
			return p.prog, nil
		}
		if t.kind != tokIdent {
			return nil, p.errf(t, "expected declaration or loop, found %s", t)
		}
		switch t.text {
		case "const":
			if err := p.parseConst(); err != nil {
				return nil, err
			}
		case "array":
			if err := p.parseArray(); err != nil {
				return nil, err
			}
		case "scalar":
			if err := p.parseScalar(); err != nil {
				return nil, err
			}
		case "loop":
			if err := p.parseNest(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf(t, "expected 'const', 'array', 'scalar' or 'loop', found %s", t)
		}
	}
}

func (p *parser) parseConst() error {
	p.advance() // const
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("="); err != nil {
		return err
	}
	v, err := p.parseConstIntExpr()
	if err != nil {
		return err
	}
	p.prog.DeclareConst(name, v)
	return nil
}

// parseConstIntExpr parses an expression and folds it to an integer
// using already-declared constants (for dims and const declarations).
func (p *parser) parseConstIntExpr() (int64, error) {
	t := p.cur()
	e, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	a, ok := ir.AffineOf(e, p.prog.Consts)
	if !ok || !a.IsConst() {
		return 0, p.errf(t, "expression must be a compile-time integer constant")
	}
	// Literals parse through float64, so a constant beyond its exact
	// integer range would print as a literal that re-parses to another
	// value.
	if a.Const > maxExactInt || a.Const < -maxExactInt {
		return 0, p.errf(t, "constant %d is beyond ±2^53, the integers a float64 holds exactly", a.Const)
	}
	return a.Const, nil
}

// maxExactInt is 2^53: every integer of smaller magnitude has an exact
// float64.
const maxExactInt = 1 << 53

func (p *parser) parseArray() error {
	p.advance() // array
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("["); err != nil {
		return err
	}
	var dims []int
	for {
		t := p.cur()
		v, err := p.parseConstIntExpr()
		if err != nil {
			return err
		}
		if v <= 0 {
			return p.errf(t, "array extent must be positive, got %d", v)
		}
		dims = append(dims, int(v))
		if p.atPunct(",") {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectPunct("]"); err != nil {
		return err
	}
	p.prog.DeclareArray(name, dims...)
	return nil
}

func (p *parser) parseScalar() error {
	p.advance() // scalar
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	init := 0.0
	if p.atPunct("=") {
		p.advance()
		neg := false
		if p.atPunct("-") {
			neg = true
			p.advance()
		}
		t := p.cur()
		if t.kind != tokNumber {
			return p.errf(t, "expected numeric initializer, found %s", t)
		}
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return p.errf(t, "bad number %q", t.text)
		}
		if neg {
			v = -v
		}
		init = v
		p.advance()
	}
	p.prog.DeclareScalarInit(name, init)
	return nil
}

func (p *parser) parseNest() error {
	p.advance() // loop
	label, err := p.expectIdent()
	if err != nil {
		return err
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	p.prog.AddNest(label, body...)
	return nil
}

func (p *parser) parseBlock() ([]ir.Stmt, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []ir.Stmt
	for !p.atPunct("}") {
		if p.cur().kind == tokEOF {
			return nil, p.errf(p.cur(), "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	p.advance() // }
	return out, nil
}

func (p *parser) parseStmt() (ir.Stmt, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return nil, p.errf(t, "expected statement, found %s", t)
	}
	switch t.text {
	case "for":
		return p.parseFor()
	case "if":
		return p.parseIf()
	case "read":
		p.advance()
		r, err := p.parseRef()
		if err != nil {
			return nil, err
		}
		return &ir.ReadInput{Target: r}, nil
	case "print":
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ir.Print{Arg: e}, nil
	default:
		// Assignment: ref = expr  |  ref += expr
		r, err := p.parseRef()
		if err != nil {
			return nil, err
		}
		switch {
		case p.atPunct("="):
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &ir.Assign{LHS: r, RHS: e}, nil
		case p.atPunct("+="):
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return ir.Acc(r, e), nil
		default:
			return nil, p.errf(p.cur(), "expected '=' or '+=', found %s", p.cur())
		}
	}
}

func (p *parser) parseFor() (ir.Stmt, error) {
	p.advance() // for
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	step := 0
	if p.atKeyword("step") {
		p.advance()
		t := p.cur()
		sv, err := p.parseConstIntExpr()
		if err != nil {
			return nil, err
		}
		if sv <= 0 {
			return nil, p.errf(t, "step must be positive, got %d", sv)
		}
		step = int(sv)
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ir.For{Var: v, Lo: lo, Hi: hi, Step: step, Body: body}, nil
}

func (p *parser) parseIf() (ir.Stmt, error) {
	p.advance() // if
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	var els []ir.Stmt
	if p.atKeyword("else") {
		p.advance()
		if p.atKeyword("if") {
			s, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			els = []ir.Stmt{s}
		} else {
			els, err = p.parseBlock()
			if err != nil {
				return nil, err
			}
		}
	}
	return &ir.If{Cond: cond, Then: then, Else: els}, nil
}

// parseRef parses NAME or NAME[expr,...].
func (p *parser) parseRef() (*ir.Ref, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	r := &ir.Ref{Name: name}
	if p.atPunct("[") {
		p.advance()
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.Index = append(r.Index, e)
			if p.atPunct(",") {
				p.advance()
				continue
			}
			break
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Expression grammar, precedence climbing.

func (p *parser) parseExpr() (ir.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (ir.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atPunct("||") {
		p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &ir.Bin{Op: ir.Or, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (ir.Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.atPunct("&&") {
		p.advance()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &ir.Bin{Op: ir.And, L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[string]ir.Op{
	"<": ir.Lt, "<=": ir.Le, ">": ir.Gt, ">=": ir.Ge, "==": ir.Eq, "!=": ir.Ne,
}

func (p *parser) parseCmp() (ir.Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokPunct {
		if op, ok := cmpOps[p.cur().text]; ok {
			p.advance()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &ir.Bin{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (ir.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.atPunct("+") || p.atPunct("-") {
		op := ir.Add
		if p.cur().text == "-" {
			op = ir.Sub
		}
		p.advance()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &ir.Bin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMul() (ir.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atPunct("*") || p.atPunct("/") {
		op := ir.Mul
		if p.cur().text == "/" {
			op = ir.Div
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &ir.Bin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (ir.Expr, error) {
	if p.atPunct("-") {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ir.Neg{X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (ir.Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf(t, "bad number %q", t.text)
		}
		p.advance()
		return &ir.Num{Val: v}, nil
	case tokIdent:
		// Call?
		if p.peek().kind == tokPunct && p.peek().text == "(" {
			name := t.text
			p.advance() // ident
			p.advance() // (
			var args []ir.Expr
			if !p.atPunct(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.atPunct(",") {
						p.advance()
						continue
					}
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &ir.Call{Fn: name, Args: args}, nil
		}
		// Ref (array or scalar/var).
		r, err := p.parseRef()
		if err != nil {
			return nil, err
		}
		if r.IsScalar() {
			return &ir.Var{Name: r.Name}, nil
		}
		return r, nil
	case tokPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf(t, "expected expression, found %s", t)
}
