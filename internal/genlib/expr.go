package genlib

import (
	"fmt"
	"strings"
)

// Op is an expression node operator.
type Op int

const (
	// OpVar is an input pin reference.
	OpVar Op = iota
	// OpNot is logical complement (one child).
	OpNot
	// OpAnd is a k-ary conjunction.
	OpAnd
	// OpOr is a k-ary disjunction.
	OpOr
)

// Expr is a Boolean expression tree over named pins, as written in the
// genlib GATE function. Same-operator children are flattened so AND/OR
// nodes are k-ary.
type Expr struct {
	Op   Op
	Var  string // for OpVar
	Kids []*Expr
}

// ParseExpr parses a genlib Boolean expression: identifiers, '!', '*', '+',
// and parentheses, with standard precedence (! > * > +). The postfix
// complement "a'" is accepted as an alias for "!a".
func ParseExpr(s string) (*Expr, error) {
	p := &exprParser{input: s}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("trailing input at %q", p.input[p.pos:])
	}
	return normalize(e), nil
}

type exprParser struct {
	input string
	pos   int
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.input) {
		return 0
	}
	return p.input[p.pos]
}

func (p *exprParser) parseOr() (*Expr, error) {
	e, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []*Expr{e}
	for p.peek() == '+' {
		p.pos++
		k, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	if len(kids) == 1 {
		return e, nil
	}
	return &Expr{Op: OpOr, Kids: kids}, nil
}

func (p *exprParser) parseAnd() (*Expr, error) {
	e, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	kids := []*Expr{e}
	for {
		c := p.peek()
		// Explicit '*' or implicit juxtaposition before '(' , '!' or ident.
		if c == '*' {
			p.pos++
		} else if c != '(' && c != '!' && !isIdentByte(c) {
			break
		}
		k, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	if len(kids) == 1 {
		return e, nil
	}
	return &Expr{Op: OpAnd, Kids: kids}, nil
}

func (p *exprParser) parseFactor() (*Expr, error) {
	switch c := p.peek(); {
	case c == '!':
		p.pos++
		k, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return p.postfix(&Expr{Op: OpNot, Kids: []*Expr{k}}), nil
	case c == '(':
		p.pos++
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("missing ')' at offset %d", p.pos)
		}
		p.pos++
		return p.postfix(e), nil
	case isIdentByte(c):
		start := p.pos
		for p.pos < len(p.input) && isIdentByte(p.input[p.pos]) {
			p.pos++
		}
		name := p.input[start:p.pos]
		if name == "CONST0" || name == "CONST1" {
			return nil, fmt.Errorf("constant cells are not supported")
		}
		return p.postfix(&Expr{Op: OpVar, Var: name}), nil
	case c == 0:
		return nil, fmt.Errorf("unexpected end of expression")
	default:
		return nil, fmt.Errorf("unexpected character %q at offset %d", c, p.pos)
	}
}

// postfix applies any trailing ' complement marks.
func (p *exprParser) postfix(e *Expr) *Expr {
	for p.pos < len(p.input) && p.input[p.pos] == '\'' {
		p.pos++
		e = &Expr{Op: OpNot, Kids: []*Expr{e}}
	}
	return e
}

func isIdentByte(c byte) bool {
	return c == '_' || c == '[' || c == ']' || c == '<' || c == '>' || c == '.' ||
		(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// normalize flattens nested same-op nodes and collapses double negation.
func normalize(e *Expr) *Expr {
	switch e.Op {
	case OpVar:
		return e
	case OpNot:
		k := normalize(e.Kids[0])
		if k.Op == OpNot {
			return k.Kids[0]
		}
		return &Expr{Op: OpNot, Kids: []*Expr{k}}
	default:
		var kids []*Expr
		for _, k := range e.Kids {
			nk := normalize(k)
			if nk.Op == e.Op {
				kids = append(kids, nk.Kids...)
			} else {
				kids = append(kids, nk)
			}
		}
		return &Expr{Op: e.Op, Kids: kids}
	}
}

// Vars returns the distinct variable names in order of first appearance.
func (e *Expr) Vars() []string {
	var out []string
	seen := map[string]bool{}
	var rec func(x *Expr)
	rec = func(x *Expr) {
		if x.Op == OpVar {
			if !seen[x.Var] {
				seen[x.Var] = true
				out = append(out, x.Var)
			}
			return
		}
		for _, k := range x.Kids {
			rec(k)
		}
	}
	rec(e)
	return out
}

// Eval evaluates the expression under a pin assignment.
func (e *Expr) Eval(assign map[string]bool) bool {
	switch e.Op {
	case OpVar:
		return assign[e.Var]
	case OpNot:
		return !e.Kids[0].Eval(assign)
	case OpAnd:
		for _, k := range e.Kids {
			if !k.Eval(assign) {
				return false
			}
		}
		return true
	default:
		for _, k := range e.Kids {
			if k.Eval(assign) {
				return true
			}
		}
		return false
	}
}

// String renders the expression in genlib syntax.
func (e *Expr) String() string {
	switch e.Op {
	case OpVar:
		return e.Var
	case OpNot:
		k := e.Kids[0]
		if k.Op == OpVar {
			return "!" + k.Var
		}
		return "!(" + k.String() + ")"
	case OpAnd:
		parts := make([]string, len(e.Kids))
		for i, k := range e.Kids {
			if k.Op == OpOr {
				parts[i] = "(" + k.String() + ")"
			} else {
				parts[i] = k.String()
			}
		}
		return strings.Join(parts, "*")
	default:
		parts := make([]string, len(e.Kids))
		for i, k := range e.Kids {
			parts[i] = k.String()
		}
		return strings.Join(parts, "+")
	}
}
