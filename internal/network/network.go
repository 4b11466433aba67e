// Package network implements the multi-level Boolean network used throughout
// the synthesis flow: a DAG of nodes, each carrying a sum-of-products local
// function over its fanins, with primary inputs and outputs.
//
// This mirrors the Boolean-network abstraction of MIS/SIS on which the paper
// builds: technology-independent optimization, technology decomposition and
// technology mapping all operate on (or produce) instances of this type.
package network

import (
	"fmt"
	"sort"

	"powermap/internal/sop"
)

// Kind discriminates node roles inside a network.
type Kind int

const (
	// Internal is a logic node with a local SOP function over its fanins.
	Internal Kind = iota
	// PI is a primary input; it has no fanins and no function.
	PI
	// Constant is a source node with a constant function (0 or 1).
	Constant
)

// Node is one vertex of the Boolean network. Local function variables are
// positional: variable i of Func refers to Fanin[i].
type Node struct {
	Name   string
	Kind   Kind
	Func   *sop.Cover // nil for PI
	Fanin  []*Node
	Fanout []*Node

	// Annotations used by analysis and synthesis passes. They carry no
	// structural meaning and are recomputed by the passes that need them.
	Prob1    float64 // probability of the signal being 1
	Activity float64 // switching activity under the selected design style
	flag     int     // scratch mark for traversals
}

// IsSource reports whether the node has no structural fanins.
func (n *Node) IsSource() bool { return n.Kind == PI || n.Kind == Constant }

// FaninIndex returns the position of m in n's fanin list, or -1.
func (n *Node) FaninIndex(m *Node) int {
	for i, f := range n.Fanin {
		if f == m {
			return i
		}
	}
	return -1
}

func (n *Node) String() string { return n.Name }

// Network is a combinational Boolean network.
type Network struct {
	Name    string
	PIs     []*Node
	Nodes   []*Node // internal and constant nodes, in insertion order
	Outputs []Output
	byName  map[string]*Node
	nameSeq int
}

// Output is a named primary output driven by a node (possibly a PI).
type Output struct {
	Name   string
	Driver *Node
}

// New returns an empty network with the given model name.
func New(name string) *Network {
	return &Network{Name: name, byName: make(map[string]*Node)}
}

// NodeByName returns the node with the given name, or nil.
func (nw *Network) NodeByName(name string) *Node { return nw.byName[name] }

// AddPI creates and returns a new primary input. It panics on duplicate
// names, which always indicate a construction bug.
func (nw *Network) AddPI(name string) *Node {
	nw.mustBeFresh(name)
	n := &Node{Name: name, Kind: PI}
	nw.PIs = append(nw.PIs, n)
	nw.byName[name] = n
	return n
}

// AddNode creates an internal node with the given fanins and local function.
// The function's variable count must equal len(fanins).
func (nw *Network) AddNode(name string, fanins []*Node, f *sop.Cover) *Node {
	nw.mustBeFresh(name)
	if f == nil {
		panic("network: AddNode with nil function")
	}
	if f.NumVars != len(fanins) {
		panic(fmt.Sprintf("network: node %s function width %d != fanin count %d",
			name, f.NumVars, len(fanins)))
	}
	n := &Node{Name: name, Kind: Internal, Func: f, Fanin: append([]*Node(nil), fanins...)}
	for _, fi := range fanins {
		fi.Fanout = append(fi.Fanout, n)
	}
	nw.Nodes = append(nw.Nodes, n)
	nw.byName[name] = n
	return n
}

// AddConstant creates a constant-0 or constant-1 source node.
func (nw *Network) AddConstant(name string, value bool) *Node {
	nw.mustBeFresh(name)
	f := sop.Zero(0)
	if value {
		f = sop.One(0)
	}
	n := &Node{Name: name, Kind: Constant, Func: f}
	nw.Nodes = append(nw.Nodes, n)
	nw.byName[name] = n
	return n
}

// FreshName returns a name of the form prefix_k not yet present.
func (nw *Network) FreshName(prefix string) string {
	for {
		nw.nameSeq++
		name := fmt.Sprintf("%s_%d", prefix, nw.nameSeq)
		if _, ok := nw.byName[name]; !ok {
			return name
		}
	}
}

// MarkOutput registers the node as driving a primary output with the given
// name.
func (nw *Network) MarkOutput(name string, driver *Node) {
	nw.Outputs = append(nw.Outputs, Output{Name: name, Driver: driver})
}

func (nw *Network) mustBeFresh(name string) {
	if _, ok := nw.byName[name]; ok {
		panic(fmt.Sprintf("network: duplicate node name %q", name))
	}
}

// SetFunction atomically replaces a node's fanin list and local function,
// maintaining fanout symmetry. The cover width must match the new fanin
// count.
func (nw *Network) SetFunction(n *Node, fanins []*Node, f *sop.Cover) {
	if n.Kind == PI {
		panic("network: cannot set a function on a primary input")
	}
	if f.NumVars != len(fanins) {
		panic(fmt.Sprintf("network: node %s new function width %d != fanin count %d",
			n.Name, f.NumVars, len(fanins)))
	}
	for _, old := range n.Fanin {
		removeFanout(old, n)
	}
	n.Fanin = append([]*Node(nil), fanins...)
	n.Func = f
	for _, fi := range fanins {
		fi.Fanout = append(fi.Fanout, n)
	}
}

// ReplaceFanin rewires every use of old in n's fanin list to repl, keeping
// the local function unchanged (the variable keeps its position).
func (nw *Network) ReplaceFanin(n, old, repl *Node) {
	changed := false
	for i, f := range n.Fanin {
		if f == old {
			n.Fanin[i] = repl
			changed = true
		}
	}
	if !changed {
		return
	}
	removeFanout(old, n)
	repl.Fanout = append(repl.Fanout, n)
}

func removeFanout(from, to *Node) {
	out := from.Fanout[:0]
	for _, f := range from.Fanout {
		if f != to {
			out = append(out, f)
		}
	}
	from.Fanout = out
}

// DeleteNode removes an internal node that has no fanouts and drives no
// output. It panics if the node is still in use.
func (nw *Network) DeleteNode(n *Node) {
	if n.Kind == PI {
		panic("network: cannot delete a primary input")
	}
	if len(n.Fanout) > 0 {
		panic(fmt.Sprintf("network: deleting node %s with live fanout", n.Name))
	}
	for _, o := range nw.Outputs {
		if o.Driver == n {
			panic(fmt.Sprintf("network: deleting output driver %s", n.Name))
		}
	}
	for _, fi := range n.Fanin {
		removeFanout(fi, n)
	}
	n.Fanin = nil
	out := nw.Nodes[:0]
	for _, m := range nw.Nodes {
		if m != n {
			out = append(out, m)
		}
	}
	nw.Nodes = out
	delete(nw.byName, n.Name)
}

// TopoOrder returns all nodes reachable from the outputs in topological
// order (fanins before fanouts), including PIs and constants.
func (nw *Network) TopoOrder() []*Node {
	for _, n := range nw.allNodes() {
		n.flag = 0
	}
	var order []*Node
	var visit func(n *Node)
	visit = func(n *Node) {
		if n.flag != 0 {
			return
		}
		n.flag = 1
		for _, f := range n.Fanin {
			visit(f)
		}
		order = append(order, n)
	}
	for _, o := range nw.Outputs {
		visit(o.Driver)
	}
	return order
}

// TopoOrderAll is TopoOrder extended to include nodes not reachable from any
// output (useful before sweeping).
func (nw *Network) TopoOrderAll() []*Node {
	order := nw.TopoOrder()
	for _, n := range nw.allNodes() {
		if n.flag == 0 {
			// Dangling cone: append in dependency order.
			var visit func(m *Node)
			visit = func(m *Node) {
				if m.flag != 0 {
					return
				}
				m.flag = 1
				for _, f := range m.Fanin {
					visit(f)
				}
				order = append(order, m)
			}
			visit(n)
		}
	}
	return order
}

func (nw *Network) allNodes() []*Node {
	all := make([]*Node, 0, len(nw.PIs)+len(nw.Nodes))
	all = append(all, nw.PIs...)
	all = append(all, nw.Nodes...)
	return all
}

// Sweep removes internal nodes unreachable from every primary output.
// It returns the number of nodes removed.
func (nw *Network) Sweep() int {
	reach := make(map[*Node]bool)
	for _, n := range nw.TopoOrder() {
		reach[n] = true
	}
	removed := 0
	// Delete in reverse insertion order so fanout-free nodes go first.
	for {
		deletedAny := false
		for i := len(nw.Nodes) - 1; i >= 0; i-- {
			n := nw.Nodes[i]
			if !reach[n] && len(n.Fanout) == 0 {
				nw.DeleteNode(n)
				removed++
				deletedAny = true
			}
		}
		if !deletedAny {
			break
		}
	}
	return removed
}

// Check validates structural invariants: acyclicity, fanin/fanout symmetry,
// function widths, name-table consistency. It returns the first violation.
func (nw *Network) Check() error {
	for name, n := range nw.byName {
		if n.Name != name {
			return fmt.Errorf("network: name table maps %q to node named %q", name, n.Name)
		}
	}
	for _, n := range nw.allNodes() {
		if n.Kind == PI {
			if len(n.Fanin) != 0 || n.Func != nil {
				return fmt.Errorf("network: PI %s has fanins or a function", n.Name)
			}
			continue
		}
		if n.Func == nil {
			return fmt.Errorf("network: node %s has no function", n.Name)
		}
		if n.Func.NumVars != len(n.Fanin) {
			return fmt.Errorf("network: node %s function width %d != fanin count %d",
				n.Name, n.Func.NumVars, len(n.Fanin))
		}
		for _, fi := range n.Fanin {
			if !containsNode(fi.Fanout, n) {
				return fmt.Errorf("network: %s -> %s missing from fanout list", fi.Name, n.Name)
			}
		}
		for _, fo := range n.Fanout {
			if fo.FaninIndex(n) < 0 {
				return fmt.Errorf("network: %s lists fanout %s that does not read it", n.Name, fo.Name)
			}
		}
	}
	// Acyclicity: DFS with colors.
	state := make(map[*Node]int)
	var visit func(n *Node) error
	visit = func(n *Node) error {
		switch state[n] {
		case 1:
			return fmt.Errorf("network: cycle through node %s", n.Name)
		case 2:
			return nil
		}
		state[n] = 1
		for _, f := range n.Fanin {
			if err := visit(f); err != nil {
				return err
			}
		}
		state[n] = 2
		return nil
	}
	for _, o := range nw.Outputs {
		if o.Driver == nil {
			return fmt.Errorf("network: output %s has no driver", o.Name)
		}
		if err := visit(o.Driver); err != nil {
			return err
		}
	}
	return nil
}

func containsNode(list []*Node, n *Node) bool {
	for _, m := range list {
		if m == n {
			return true
		}
	}
	return false
}

// Duplicate returns a deep structural copy of the network. Annotations
// (probability, timing) are copied as well.
func (nw *Network) Duplicate() *Network {
	cp := New(nw.Name)
	clone := make(map[*Node]*Node, len(nw.PIs)+len(nw.Nodes))
	for _, p := range nw.PIs {
		np := cp.AddPI(p.Name)
		copyAnnotations(np, p)
		clone[p] = np
	}
	// Nodes are stored in insertion order, which is not necessarily
	// topological; duplicate in topological order instead.
	for _, n := range nw.TopoOrderAll() {
		if n.Kind == PI {
			continue
		}
		fanins := make([]*Node, len(n.Fanin))
		for i, f := range n.Fanin {
			fanins[i] = clone[f]
		}
		nn := cp.AddNode(n.Name, fanins, n.Func.Clone())
		nn.Kind = n.Kind
		copyAnnotations(nn, n)
		clone[n] = nn
	}
	for _, o := range nw.Outputs {
		cp.MarkOutput(o.Name, clone[o.Driver])
	}
	return cp
}

func copyAnnotations(dst, src *Node) {
	dst.Prob1 = src.Prob1
	dst.Activity = src.Activity
}

// Eval computes the value of every reachable node under a full PI
// assignment keyed by PI name, returning output values keyed by output name.
func (nw *Network) Eval(piValues map[string]bool) map[string]bool {
	val := make(map[*Node]bool)
	for _, n := range nw.TopoOrder() {
		switch n.Kind {
		case PI:
			val[n] = piValues[n.Name]
		default:
			assign := make([]bool, len(n.Fanin))
			for i, f := range n.Fanin {
				assign[i] = val[f]
			}
			val[n] = n.Func.Eval(assign)
		}
	}
	out := make(map[string]bool, len(nw.Outputs))
	for _, o := range nw.Outputs {
		out[o.Name] = val[o.Driver]
	}
	return out
}

// PINames returns the primary input names in declaration order.
func (nw *Network) PINames() []string {
	names := make([]string, len(nw.PIs))
	for i, p := range nw.PIs {
		names[i] = p.Name
	}
	return names
}

// OutputNames returns the primary output names in declaration order.
func (nw *Network) OutputNames() []string {
	names := make([]string, len(nw.Outputs))
	for i, o := range nw.Outputs {
		names[i] = o.Name
	}
	return names
}

// Stats summarizes network size.
type Stats struct {
	PIs, POs, Nodes, Literals int
	Depth                     int // unit-delay depth in 2-input-decomposed terms is not implied; this is level count
}

// Stats returns size statistics for the network.
func (nw *Network) Stats() Stats {
	s := Stats{PIs: len(nw.PIs), POs: len(nw.Outputs)}
	level := make(map[*Node]int)
	for _, n := range nw.TopoOrder() {
		if n.Kind == Internal {
			s.Nodes++
			s.Literals += n.Func.NumLiterals()
		}
		l := 0
		for _, f := range n.Fanin {
			if level[f]+1 > l {
				l = level[f] + 1
			}
		}
		level[n] = l
		if l > s.Depth {
			s.Depth = l
		}
	}
	return s
}

// EquivalentBrute reports whether two networks with identical PI name sets
// compute the same outputs for every assignment, by exhaustive simulation.
// Intended for tests on networks with few inputs.
func EquivalentBrute(a, b *Network) (bool, error) {
	an, bn := a.PINames(), b.PINames()
	sort.Strings(an)
	sort.Strings(bn)
	if len(an) != len(bn) {
		return false, fmt.Errorf("network: PI count mismatch %d vs %d", len(an), len(bn))
	}
	for i := range an {
		if an[i] != bn[i] {
			return false, fmt.Errorf("network: PI name mismatch %s vs %s", an[i], bn[i])
		}
	}
	ao, bo := a.OutputNames(), b.OutputNames()
	if len(ao) != len(bo) {
		return false, fmt.Errorf("network: output count mismatch %d vs %d", len(ao), len(bo))
	}
	if len(an) > 20 {
		return false, fmt.Errorf("network: too many PIs (%d) for brute-force equivalence", len(an))
	}
	for bits := 0; bits < 1<<len(an); bits++ {
		assign := make(map[string]bool, len(an))
		for i, name := range an {
			assign[name] = bits>>i&1 != 0
		}
		av, bv := a.Eval(assign), b.Eval(assign)
		for name, v := range av {
			if bv[name] != v {
				return false, nil
			}
		}
	}
	return true, nil
}
