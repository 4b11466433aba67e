package mapper

import (
	"fmt"
	"math"
	"sort"

	"powermap/internal/bdd"
	"powermap/internal/genlib"
	"powermap/internal/network"
	"powermap/internal/power"
	"powermap/internal/prob"
)

// Gate is one mapped library-cell instance. Inputs are subject-graph nodes
// in cell pin order; the gate's output signal is the subject node Root.
type Gate struct {
	Root   *network.Node
	Cell   *genlib.Cell
	Inputs []*network.Node
}

// Netlist is a mapped circuit: library gates over subject-graph signals.
type Netlist struct {
	Name  string
	Gates []*Gate
	// Report holds the paper's three reported quantities, computed with
	// actual loads and exact activities.
	Report power.Report
	// Env is the operating point used for the power numbers.
	Env power.Environment

	sub        *network.Network
	gateByRoot map[*network.Node]*Gate
	arrival    map[*network.Node]float64
	loads      map[*network.Node]float64
	outputLoad float64
}

// Load returns the actual capacitive load at a mapped signal.
func (nl *Netlist) Load(n *network.Node) float64 { return nl.loads[n] }

// extract walks the chosen selections from the primary outputs, builds the
// gate list, and computes the final report with actual loads.
func (s *state) extract() (*Netlist, error) {
	nl := &Netlist{
		Name:       s.sub.Name,
		Env:        s.env,
		sub:        s.sub,
		gateByRoot: make(map[*network.Node]*Gate),
		arrival:    make(map[*network.Node]float64),
		loads:      make(map[*network.Node]float64),
		outputLoad: s.poLoad,
	}
	var visit func(n *network.Node) error
	visit = func(n *network.Node) error {
		if n.IsSource() || nl.gateByRoot[n] != nil {
			return nil
		}
		sel := s.chosen[n]
		if sel == nil {
			return fmt.Errorf("mapper: node %s reached without a selection", n.Name)
		}
		g := &Gate{Root: n, Cell: sel.point.Cell, Inputs: make([]*network.Node, len(sel.point.Inputs))}
		for i, ic := range sel.point.Inputs {
			g.Inputs[ic.Pin] = ic.Node
			_ = i
		}
		nl.gateByRoot[n] = g
		nl.Gates = append(nl.Gates, g)
		for _, in := range g.Inputs {
			if err := visit(in); err != nil {
				return err
			}
		}
		return nil
	}
	for _, o := range s.sub.Outputs {
		if err := visit(o.Driver); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(nl.Gates, func(i, j int) bool {
		return nl.Gates[i].Root.Name < nl.Gates[j].Root.Name
	})
	s.obs.sitesSelected.Add(int64(len(nl.Gates)))
	nl.computeReport()
	s.journalNetlist(nl)
	return nl, nil
}

// computeReport fills area, delay (Equation 14 with actual loads) and
// average power (Equation 1 with exact activities) over the mapped gates.
func (nl *Netlist) computeReport() {
	var rep power.Report
	rep.Gates = len(nl.Gates)
	// Actual loads: input pin capacitances plus output pads.
	for _, g := range nl.Gates {
		rep.GateArea += g.Cell.Area
		for pin, in := range g.Inputs {
			nl.loads[in] += g.Cell.Pins[pin].Load
		}
	}
	for _, o := range nl.sub.Outputs {
		nl.loads[o.Driver] += nl.outputLoad
	}
	// Arrival times over the gate DAG.
	var arrive func(n *network.Node) float64
	arrive = func(n *network.Node) float64 {
		if a, ok := nl.arrival[n]; ok {
			return a
		}
		if n.IsSource() {
			nl.arrival[n] = 0
			return 0
		}
		g := nl.gateByRoot[n]
		nl.arrival[n] = 0 // cycle guard; gate DAGs are acyclic
		worst := 0.0
		for pin, in := range g.Inputs {
			p := g.Cell.Pins[pin]
			if a := arrive(in) + p.Block + p.Drive*nl.loads[n]; a > worst {
				worst = a
			}
		}
		nl.arrival[n] = worst
		return worst
	}
	for _, o := range nl.sub.Outputs {
		if a := arrive(o.Driver); a > rep.Delay {
			rep.Delay = a
		}
	}
	// Average power: every switched signal charges its actual load.
	counted := map[*network.Node]bool{}
	addPower := func(n *network.Node) {
		if counted[n] {
			return
		}
		counted[n] = true
		rep.PowerUW += nl.Env.GatePowerUW(nl.loads[n], n.Activity)
	}
	for _, g := range nl.Gates {
		addPower(g.Root)
		for _, in := range g.Inputs {
			addPower(in)
		}
	}
	for _, o := range nl.sub.Outputs {
		addPower(o.Driver)
	}
	nl.Report = rep
}

// Verify checks that every mapped gate's cell function, evaluated over the
// global BDDs of its input signals, equals the global BDD of its output
// signal — i.e. the mapping preserved every signal exactly. The model must
// be the one computed on the subject network.
func (nl *Netlist) Verify(model *prob.Model) error {
	mgr := model.Manager()
	for _, g := range nl.Gates {
		pinRefs := make(map[string]bdd.Ref, len(g.Inputs))
		for pin, in := range g.Inputs {
			r, ok := model.Global(in)
			if !ok {
				return fmt.Errorf("mapper: input %s of gate %s has no global BDD", in.Name, g.Root.Name)
			}
			pinRefs[g.Cell.Pins[pin].Name] = r
		}
		got, err := exprBDD(mgr, g.Cell.Expr, pinRefs)
		if err != nil {
			return fmt.Errorf("mapper: verifying gate %s (%s): %w", g.Root.Name, g.Cell.Name, err)
		}
		want, ok := model.Global(g.Root)
		if !ok {
			return fmt.Errorf("mapper: root %s has no global BDD", g.Root.Name)
		}
		if got != want {
			return fmt.Errorf("mapper: gate %s (%s) does not compute its root signal", g.Root.Name, g.Cell.Name)
		}
	}
	return nil
}

// ToNetwork reconstructs a Boolean network computing exactly what the
// mapped netlist computes: one internal node per gate, whose local function
// is the cell's SOP over pin order and whose fanins are the gate's
// pin-ordered input signals. Primary inputs keep the subject network's
// declaration order, so the result is directly comparable to the source
// network with the BDD equivalence checker. (Mapped BLIF uses .gate lines,
// which the BLIF reader does not interpret, so this is the round-trip path
// for independent verification.)
func (nl *Netlist) ToNetwork() (*network.Network, error) {
	out := network.New(nl.Name)
	clone := make(map[*network.Node]*network.Node, len(nl.Gates))
	for _, pi := range nl.sub.PIs {
		clone[pi] = out.AddPI(pi.Name)
	}
	var visit func(n *network.Node) (*network.Node, error)
	visit = func(n *network.Node) (*network.Node, error) {
		if c, ok := clone[n]; ok {
			return c, nil
		}
		if n.Kind == network.Constant {
			c := out.AddConstant(n.Name, n.Func.IsOne())
			clone[n] = c
			return c, nil
		}
		g := nl.gateByRoot[n]
		if g == nil {
			return nil, fmt.Errorf("mapper: signal %s has no gate in the netlist", n.Name)
		}
		fanins := make([]*network.Node, len(g.Inputs))
		for i, in := range g.Inputs {
			c, err := visit(in)
			if err != nil {
				return nil, err
			}
			fanins[i] = c
		}
		c := out.AddNode(n.Name, fanins, g.Cell.Cover())
		clone[n] = c
		return c, nil
	}
	for _, o := range nl.sub.Outputs {
		d, err := visit(o.Driver)
		if err != nil {
			return nil, err
		}
		out.MarkOutput(o.Name, d)
	}
	return out, nil
}

func exprBDD(mgr *bdd.Manager, e *genlib.Expr, pins map[string]bdd.Ref) (bdd.Ref, error) {
	switch e.Op {
	case genlib.OpVar:
		return pins[e.Var], nil
	case genlib.OpNot:
		k, err := exprBDD(mgr, e.Kids[0], pins)
		if err != nil {
			return bdd.False, err
		}
		return mgr.Not(k)
	case genlib.OpAnd:
		r := bdd.True
		for _, k := range e.Kids {
			kr, err := exprBDD(mgr, k, pins)
			if err != nil {
				return bdd.False, err
			}
			if r, err = mgr.And(r, kr); err != nil {
				return bdd.False, err
			}
		}
		return r, nil
	default:
		r := bdd.False
		for _, k := range e.Kids {
			kr, err := exprBDD(mgr, k, pins)
			if err != nil {
				return bdd.False, err
			}
			if r, err = mgr.Or(r, kr); err != nil {
				return bdd.False, err
			}
		}
		return r, nil
	}
}

// CellCounts returns the number of instances per cell name, sorted by name
// (for reports and tests).
func (nl *Netlist) CellCounts() []struct {
	Name  string
	Count int
} {
	m := map[string]int{}
	for _, g := range nl.Gates {
		m[g.Cell.Name]++
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]struct {
		Name  string
		Count int
	}, len(names))
	for i, n := range names {
		out[i].Name = n
		out[i].Count = m[n]
	}
	return out
}

// SignalPower is one row of a power breakdown.
type SignalPower struct {
	Signal   *network.Node
	Load     float64
	Activity float64
	PowerUW  float64
}

// PowerBreakdown returns the per-signal power contributions sorted from
// largest to smallest — where the microwatts actually go.
func (nl *Netlist) PowerBreakdown() []SignalPower {
	seen := map[*network.Node]bool{}
	var rows []SignalPower
	add := func(n *network.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		rows = append(rows, SignalPower{
			Signal:   n,
			Load:     nl.loads[n],
			Activity: n.Activity,
			PowerUW:  nl.Env.GatePowerUW(nl.loads[n], n.Activity),
		})
	}
	for _, g := range nl.Gates {
		add(g.Root)
		for _, in := range g.Inputs {
			add(in)
		}
	}
	for _, o := range nl.sub.Outputs {
		add(o.Driver)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].PowerUW != rows[j].PowerUW {
			return rows[i].PowerUW > rows[j].PowerUW
		}
		return rows[i].Signal.Name < rows[j].Signal.Name
	})
	return rows
}

// OutputArrivals returns the computed arrival time of every primary output
// by name, used to derive common required times for method comparisons.
func (nl *Netlist) OutputArrivals() map[string]float64 {
	out := make(map[string]float64, len(nl.sub.Outputs))
	for _, o := range nl.sub.Outputs {
		out[o.Name] = nl.arrival[o.Driver]
	}
	return out
}

// WorstSlack returns the minimum over outputs of required - arrival for the
// given required times (missing outputs use the network delay itself).
func (nl *Netlist) WorstSlack(required map[string]float64) float64 {
	worst := math.Inf(1)
	for _, o := range nl.sub.Outputs {
		req, ok := 0.0, false
		if required != nil {
			req, ok = required[o.Name]
		}
		if !ok {
			req = nl.Report.Delay
		}
		if s := req - nl.arrival[o.Driver]; s < worst {
			worst = s
		}
	}
	return worst
}
