// Package genlib models a standard-cell library in the Berkeley genlib
// format used by MIS/SIS: each cell has an area, a single-output Boolean
// expression over its input pins, and per-pin loads and delays. The SIS
// pin-dependent delay model the paper adopts (Equation 14) maps directly
// onto genlib numbers: the block delay is the intrinsic delay τ and the
// fanout delay is the drive resistance R multiplied by the load seen at the
// cell output.
//
// Each cell is compiled into one or more NAND2/INV pattern trees used by
// the structural tree matcher in the mapper package.
package genlib

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"powermap/internal/sop"
)

// Phase is the genlib pin phase declaration.
type Phase int

const (
	// PhaseUnknown accepts either polarity.
	PhaseUnknown Phase = iota
	// PhaseInv marks an inverting pin.
	PhaseInv
	// PhaseNonInv marks a non-inverting pin.
	PhaseNonInv
)

// Pin describes one input pin of a cell.
type Pin struct {
	Name    string
	Phase   Phase
	Load    float64 // input capacitance presented by this pin
	MaxLoad float64 // maximum load the cell may drive through this pin's arc
	// Delay parameters, averaged over rise and fall: the paper's τ (Block)
	// and R (Drive) of Equation 14.
	Block float64 // intrinsic delay from this pin to the output
	Drive float64 // delay per unit of output load
}

// Cell is one library gate.
type Cell struct {
	Name     string
	Area     float64
	Output   string
	Expr     *Expr
	Pins     []Pin
	Patterns []*Pattern

	cover *sop.Cover // Expr as a minimized SOP, set by the library's finalize
}

// PinIndex returns the index of the named pin, or -1.
func (c *Cell) PinIndex(name string) int {
	for i := range c.Pins {
		if c.Pins[i].Name == name {
			return i
		}
	}
	return -1
}

// NumInputs returns the number of input pins.
func (c *Cell) NumInputs() int { return len(c.Pins) }

// Library is a set of cells plus cached lookups used by the mapper.
type Library struct {
	Name  string
	Cells []*Cell

	inverter  *Cell   // smallest inverter
	nand2     *Cell   // smallest 2-input NAND
	stdLoad   float64 // default load: input cap of the smallest NAND2
	maxInputs int
}

// Inverter returns the smallest inverter cell.
func (l *Library) Inverter() *Cell { return l.inverter }

// Nand2 returns the smallest 2-input NAND cell.
func (l *Library) Nand2() *Cell { return l.nand2 }

// DefaultLoad returns the unknown-load estimate: the input capacitance of
// the smallest 2-input NAND gate in the library (Subsection 3.2.3).
func (l *Library) DefaultLoad() float64 { return l.stdLoad }

// MaxInputs returns the largest input count over all cells.
func (l *Library) MaxInputs() int { return l.maxInputs }

// CellByName returns the named cell or nil.
func (l *Library) CellByName(name string) *Cell {
	for _, c := range l.Cells {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// finalize validates the library and computes cached lookups and patterns.
func (l *Library) finalize() error {
	if len(l.Cells) == 0 {
		return fmt.Errorf("genlib: empty library")
	}
	for _, c := range l.Cells {
		if err := c.compilePatterns(); err != nil {
			return fmt.Errorf("genlib: cell %s: %w", c.Name, err)
		}
		c.cover = c.exprSOP()
		if c.NumInputs() > l.maxInputs {
			l.maxInputs = c.NumInputs()
		}
		if isInverterExpr(c.Expr) {
			if l.inverter == nil || c.Area < l.inverter.Area {
				l.inverter = c
			}
		}
		if isNand2Expr(c.Expr) {
			if l.nand2 == nil || c.Area < l.nand2.Area {
				l.nand2 = c
			}
		}
	}
	if l.inverter == nil {
		return fmt.Errorf("genlib: library has no inverter; tree covering requires one")
	}
	if l.nand2 == nil {
		return fmt.Errorf("genlib: library has no 2-input NAND; tree covering requires one")
	}
	load := 0.0
	for i := range l.nand2.Pins {
		load += l.nand2.Pins[i].Load
	}
	l.stdLoad = load / float64(len(l.nand2.Pins))
	// Deterministic order: by input count then area then name, so matching
	// explores small cells first.
	sort.SliceStable(l.Cells, func(a, b int) bool {
		ca, cb := l.Cells[a], l.Cells[b]
		if ca.NumInputs() != cb.NumInputs() {
			return ca.NumInputs() < cb.NumInputs()
		}
		if ca.Area != cb.Area {
			return ca.Area < cb.Area
		}
		return ca.Name < cb.Name
	})
	return nil
}

func isInverterExpr(e *Expr) bool {
	return e.Op == OpNot && e.Kids[0].Op == OpVar
}

func isNand2Expr(e *Expr) bool {
	if e.Op != OpNot || e.Kids[0].Op != OpAnd || len(e.Kids[0].Kids) != 2 {
		return false
	}
	return e.Kids[0].Kids[0].Op == OpVar && e.Kids[0].Kids[1].Op == OpVar
}

// Parse reads a genlib description.
func Parse(r io.Reader) (*Library, error) {
	lib := &Library{Name: "genlib"}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 4*1024*1024)
	var cur *Cell
	pending := make(map[*Cell][]rawPin)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch strings.ToUpper(fields[0]) {
		case "GATE":
			// GATE name area out=expr;  — PIN declarations may follow the
			// ';' on the same physical line.
			rest := strings.TrimSpace(line[len(fields[0]):])
			var tail string
			if semi := strings.IndexByte(rest, ';'); semi >= 0 {
				tail = strings.TrimSpace(rest[semi+1:])
				rest = rest[:semi]
			}
			c, err := parseGateLine(rest)
			if err != nil {
				return nil, fmt.Errorf("genlib: line %d: %w", lineNo, err)
			}
			lib.Cells = append(lib.Cells, c)
			cur = c
			for tail != "" {
				pf := strings.Fields(tail)
				if strings.ToUpper(pf[0]) != "PIN" {
					return nil, fmt.Errorf("genlib: line %d: unexpected %q after GATE function", lineNo, pf[0])
				}
				if len(pf) < 9 {
					return nil, fmt.Errorf("genlib: line %d: truncated PIN after GATE function", lineNo)
				}
				if err := parsePinLine(cur, pending, pf[1:9]); err != nil {
					return nil, fmt.Errorf("genlib: line %d: %w", lineNo, err)
				}
				tail = strings.TrimSpace(strings.Join(pf[9:], " "))
			}
		case "PIN":
			if cur == nil {
				return nil, fmt.Errorf("genlib: line %d: PIN before any GATE", lineNo)
			}
			if err := parsePinLine(cur, pending, fields[1:]); err != nil {
				return nil, fmt.Errorf("genlib: line %d: %w", lineNo, err)
			}
		case "LATCH":
			return nil, fmt.Errorf("genlib: line %d: LATCH cells are not supported (combinational flow)", lineNo)
		default:
			return nil, fmt.Errorf("genlib: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("genlib: read: %w", err)
	}
	for _, c := range lib.Cells {
		if err := resolvePins(c, pending); err != nil {
			return nil, fmt.Errorf("genlib: cell %s: %w", c.Name, err)
		}
	}
	if err := lib.finalize(); err != nil {
		return nil, err
	}
	return lib, nil
}

// ParseString is Parse over an in-memory genlib text.
func ParseString(s string) (*Library, error) { return Parse(strings.NewReader(s)) }

func parseGateLine(rest string) (*Cell, error) {
	fields := strings.Fields(rest)
	if len(fields) < 3 {
		return nil, fmt.Errorf("malformed GATE line %q", rest)
	}
	name := fields[0]
	area, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return nil, fmt.Errorf("bad area %q: %v", fields[1], err)
	}
	if err := checkNumber("area", fields[1], area); err != nil {
		return nil, fmt.Errorf("cell %s: %w", name, err)
	}
	funcText := strings.Join(fields[2:], " ")
	funcText = strings.TrimSuffix(strings.TrimSpace(funcText), ";")
	eq := strings.Index(funcText, "=")
	if eq < 0 {
		return nil, fmt.Errorf("GATE function %q missing '='", funcText)
	}
	out := strings.TrimSpace(funcText[:eq])
	expr, err := ParseExpr(funcText[eq+1:])
	if err != nil {
		return nil, fmt.Errorf("function %q: %w", funcText, err)
	}
	return &Cell{Name: name, Area: area, Output: out, Expr: expr}, nil
}

// pinFields names a PIN line's six numbers, in order, for error messages.
var pinFields = [6]string{"input-load", "max-load", "rise-block", "rise-drive", "fall-block", "fall-drive"}

// maxMagnitude bounds every genlib number: a cell's area and the six
// numbers of each PIN line. It lies far above any lib2-style value (areas
// of tens, loads and delays near 1) and far enough below the float64 range
// that every sum the flow forms from them — DefaultLoad, a netlist's area,
// an arrival time, a power figure — stays finite.
const maxMagnitude = 1e9

// checkNumber rejects a genlib number that is NaN, ±Inf or beyond
// maxMagnitude, naming the field and its text: every number prices a
// candidate, a NaN cost never survives a curve's prune, and a finite but
// huge one overflows the sums built from it.
func checkNumber(field, text string, v float64) error {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return fmt.Errorf("%s %s is not finite", field, text)
	case math.Abs(v) > maxMagnitude:
		return fmt.Errorf("%s %s exceeds the magnitude ceiling %g", field, text, maxMagnitude)
	}
	return nil
}

type rawPin struct {
	pin Pin
	any bool // PIN * applies to all inputs
}

func parsePinLine(c *Cell, pending map[*Cell][]rawPin, fields []string) error {
	// PIN name phase load maxload riseBlock riseDrive fallBlock fallDrive
	if len(fields) != 8 {
		return fmt.Errorf("PIN needs 8 fields, got %d", len(fields))
	}
	var p Pin
	p.Name = fields[0]
	switch strings.ToUpper(fields[1]) {
	case "INV":
		p.Phase = PhaseInv
	case "NONINV":
		p.Phase = PhaseNonInv
	case "UNKNOWN":
		p.Phase = PhaseUnknown
	default:
		return fmt.Errorf("bad phase %q", fields[1])
	}
	nums := make([]float64, 6)
	for i, f := range fields[2:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return fmt.Errorf("bad number %q: %v", f, err)
		}
		if err := checkNumber(pinFields[i], f, v); err != nil {
			return fmt.Errorf("cell %s: pin %s: %w", c.Name, p.Name, err)
		}
		nums[i] = v
	}
	p.Load, p.MaxLoad = nums[0], nums[1]
	p.Block = (nums[2] + nums[4]) / 2
	p.Drive = (nums[3] + nums[5]) / 2
	pending[c] = append(pending[c], rawPin{pin: p, any: p.Name == "*"})
	return nil
}

// resolvePins assigns PIN declarations to the cell's expression variables
// in order of appearance, expanding "PIN *" wildcards.
func resolvePins(c *Cell, pending map[*Cell][]rawPin) error {
	vars := c.Expr.Vars()
	raws := pending[c]
	if len(raws) == 0 {
		return fmt.Errorf("no PIN declarations")
	}
	c.Pins = make([]Pin, 0, len(vars))
	if len(raws) == 1 && raws[0].any {
		for _, v := range vars {
			p := raws[0].pin
			p.Name = v
			c.Pins = append(c.Pins, p)
		}
		return nil
	}
	byName := make(map[string]Pin, len(raws))
	for _, r := range raws {
		if r.any {
			return fmt.Errorf("PIN * mixed with named pins")
		}
		byName[r.pin.Name] = r.pin
	}
	for _, v := range vars {
		p, ok := byName[v]
		if !ok {
			return fmt.Errorf("variable %s has no PIN declaration", v)
		}
		c.Pins = append(c.Pins, p)
	}
	if len(byName) != len(vars) {
		return fmt.Errorf("PIN declarations do not match expression variables")
	}
	return nil
}

// Cover returns the cell function as a sum-of-products over the pin order,
// used when reconstructing a Boolean network from a mapped netlist. The
// caller owns the result: a library cell hands out a copy of the cover its
// library computed once, and a cell built outside a library computes it.
func (c *Cell) Cover() *sop.Cover {
	if c.cover != nil {
		return c.cover.Clone()
	}
	return c.exprSOP()
}

// exprSOP derives the minimized SOP of the cell's expression.
func (c *Cell) exprSOP() *sop.Cover {
	pinIdx := make(map[string]int, len(c.Pins))
	for i := range c.Pins {
		pinIdx[c.Pins[i].Name] = i
	}
	f := exprCover(c.Expr, pinIdx, len(c.Pins))
	f.Minimize()
	return f
}

func exprCover(e *Expr, pinIdx map[string]int, n int) *sop.Cover {
	switch e.Op {
	case OpVar:
		return sop.FromLiteral(n, pinIdx[e.Var], true)
	case OpNot:
		return exprCover(e.Kids[0], pinIdx, n).Complement()
	case OpAnd:
		f := sop.One(n)
		for _, k := range e.Kids {
			f = f.And(exprCover(k, pinIdx, n))
		}
		return f
	default:
		f := sop.Zero(n)
		for _, k := range e.Kids {
			f = f.Or(exprCover(k, pinIdx, n))
		}
		f.Minimize()
		return f
	}
}
