package mapper

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"powermap/internal/genlib"
	"powermap/internal/network"
)

// WriteBLIF serializes the mapped netlist in SIS mapped-BLIF form: one
// ".gate" statement per cell instance, with formal=actual pin bindings.
func (nl *Netlist) WriteBLIF(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# mapped by powermap: %d gates, area %.0f, delay %.2f ns, power %.2f uW\n",
		nl.Report.Gates, nl.Report.GateArea, nl.Report.Delay, nl.Report.PowerUW)
	fmt.Fprintf(bw, ".model %s\n", nl.Name)
	writeList(bw, ".inputs", nl.sub.PINames())
	writeList(bw, ".outputs", nl.sub.OutputNames())
	// Topological emission keeps the file readable; gates are already
	// stored sorted by root name, so sort by arrival then name instead.
	gates := append([]*Gate(nil), nl.Gates...)
	sort.SliceStable(gates, func(i, j int) bool {
		ai, aj := nl.arrival[gates[i].Root], nl.arrival[gates[j].Root]
		if ai != aj {
			return ai < aj
		}
		return gates[i].Root.Name < gates[j].Root.Name
	})
	for _, g := range gates {
		fmt.Fprintf(bw, ".gate %s", g.Cell.Name)
		for pin, in := range g.Inputs {
			fmt.Fprintf(bw, " %s=%s", g.Cell.Pins[pin].Name, in.Name)
		}
		fmt.Fprintf(bw, " %s=%s\n", g.Cell.Output, g.Root.Name)
	}
	// Outputs driven by a signal of a different name need alias wiring;
	// mapped BLIF has no buffers, so emit a comment documenting the alias
	// and a .names buffer for tools that accept mixed form.
	for _, o := range nl.sub.Outputs {
		if o.Driver.Name != o.Name {
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", o.Driver.Name, o.Name)
		}
	}
	fmt.Fprintf(bw, ".end\n")
	return bw.Flush()
}

func writeList(w io.Writer, directive string, names []string) {
	fmt.Fprintf(w, "%s", directive)
	col := len(directive)
	for _, n := range names {
		if col+len(n)+1 > 78 {
			fmt.Fprintf(w, " \\\n   ")
			col = 4
		}
		fmt.Fprintf(w, " %s", n)
		col += len(n) + 1
	}
	fmt.Fprintf(w, "\n")
}

// WriteDot renders the mapped netlist as a Graphviz digraph: sources as
// diamonds, gates as boxes labelled "cell\nsignal @arrival", outputs as
// double circles.
func (nl *Netlist) WriteDot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=LR;\n  node [fontsize=10];\n", nl.Name)
	for _, pi := range nl.sub.PIs {
		fmt.Fprintf(bw, "  %q [shape=diamond,label=%q];\n", pi.Name, pi.Name)
	}
	for _, g := range nl.Gates {
		label := fmt.Sprintf("%s\\n%s @%.2f", g.Cell.Name, g.Root.Name, nl.arrival[g.Root])
		fmt.Fprintf(bw, "  %q [shape=box,label=%q];\n", g.Root.Name, label)
		for pin, in := range g.Inputs {
			fmt.Fprintf(bw, "  %q -> %q [label=%q];\n", in.Name, g.Root.Name, g.Cell.Pins[pin].Name)
		}
	}
	for _, o := range nl.sub.Outputs {
		port := "out_" + o.Name
		fmt.Fprintf(bw, "  %q [shape=doublecircle,label=%q];\n", port, o.Name)
		fmt.Fprintf(bw, "  %q -> %q;\n", o.Driver.Name, port)
	}
	fmt.Fprintf(bw, "}\n")
	return bw.Flush()
}

// ReadMappedBLIF parses a mapped-BLIF file (".gate" statements over cells
// of lib) into a plain Boolean network in which every gate instance is a
// node carrying the cell's SOP, suitable for equivalence checking against
// the pre-mapping network.
func ReadMappedBLIF(r io.Reader, lib *genlib.Library) (*network.Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	nw := network.New("mapped")
	type pendingGate struct {
		line    int
		cell    *genlib.Cell
		actuals []string // by pin order
		output  string
	}
	type pendingBuf struct {
		line     int
		src, dst string
	}
	var gates []pendingGate
	var bufs []pendingBuf
	var outputs []string
	lineNo := 0
	var lastNames *pendingBuf
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				nw.Name = fields[1]
			}
		case ".inputs":
			for _, name := range fields[1:] {
				if name == "\\" {
					continue
				}
				if nw.NodeByName(name) != nil {
					return nil, fmt.Errorf("mapper: line %d: duplicate input %s", lineNo, name)
				}
				nw.AddPI(name)
			}
		case ".outputs":
			for _, name := range fields[1:] {
				if name == "\\" {
					continue
				}
				outputs = append(outputs, name)
			}
		case ".gate":
			if len(fields) < 3 {
				return nil, fmt.Errorf("mapper: line %d: malformed .gate", lineNo)
			}
			cell := lib.CellByName(fields[1])
			if cell == nil {
				return nil, fmt.Errorf("mapper: line %d: unknown cell %q", lineNo, fields[1])
			}
			pg := pendingGate{line: lineNo, cell: cell, actuals: make([]string, cell.NumInputs())}
			for _, kv := range fields[2:] {
				eq := strings.IndexByte(kv, '=')
				if eq < 0 {
					return nil, fmt.Errorf("mapper: line %d: malformed binding %q", lineNo, kv)
				}
				formal, actual := kv[:eq], kv[eq+1:]
				if formal == cell.Output {
					pg.output = actual
					continue
				}
				idx := cell.PinIndex(formal)
				if idx < 0 {
					return nil, fmt.Errorf("mapper: line %d: cell %s has no pin %q", lineNo, cell.Name, formal)
				}
				pg.actuals[idx] = actual
			}
			if pg.output == "" {
				return nil, fmt.Errorf("mapper: line %d: .gate without output binding", lineNo)
			}
			for i, a := range pg.actuals {
				if a == "" {
					return nil, fmt.Errorf("mapper: line %d: pin %s unbound", lineNo, cell.Pins[i].Name)
				}
			}
			gates = append(gates, pg)
		case ".names":
			// Only the 1-input buffer form emitted by WriteBLIF.
			if len(fields) != 3 {
				return nil, fmt.Errorf("mapper: line %d: only buffer .names supported in mapped BLIF", lineNo)
			}
			lastNames = &pendingBuf{line: lineNo, src: fields[1], dst: fields[2]}
		case "1":
			if lastNames == nil {
				return nil, fmt.Errorf("mapper: line %d: stray cover row", lineNo)
			}
			bufs = append(bufs, *lastNames)
			lastNames = nil
		case ".end":
		default:
			if fields[0] == "1" {
				continue
			}
			return nil, fmt.Errorf("mapper: line %d: unsupported construct %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mapper: read: %w", err)
	}
	// Create nodes in dependency order.
	byOutput := make(map[string]*pendingGate, len(gates))
	for i := range gates {
		g := &gates[i]
		if byOutput[g.output] != nil {
			return nil, fmt.Errorf("mapper: line %d: signal %s driven twice", g.line, g.output)
		}
		if nw.NodeByName(g.output) != nil {
			return nil, fmt.Errorf("mapper: line %d: gate drives primary input %s", g.line, g.output)
		}
		byOutput[g.output] = g
	}
	state := make(map[string]int)
	var create func(name string) error
	create = func(name string) error {
		if nw.NodeByName(name) != nil {
			return nil
		}
		g, ok := byOutput[name]
		if !ok {
			return fmt.Errorf("mapper: signal %s is never driven", name)
		}
		switch state[name] {
		case 1:
			return fmt.Errorf("mapper: combinational cycle through %s", name)
		case 2:
			return nil
		}
		state[name] = 1
		for _, a := range g.actuals {
			if err := create(a); err != nil {
				return err
			}
		}
		fanins := make([]*network.Node, len(g.actuals))
		for i, a := range g.actuals {
			fanins[i] = nw.NodeByName(a)
		}
		nw.AddNode(name, fanins, g.cell.Cover())
		state[name] = 2
		return nil
	}
	for name := range byOutput {
		if err := create(name); err != nil {
			return nil, err
		}
	}
	alias := make(map[string]string, len(bufs))
	for _, b := range bufs {
		alias[b.dst] = b.src
	}
	for _, name := range outputs {
		drvName := name
		if src, ok := alias[name]; ok {
			drvName = src
		}
		drv := nw.NodeByName(drvName)
		if drv == nil {
			return nil, fmt.Errorf("mapper: output %s is never driven", name)
		}
		nw.MarkOutput(name, drv)
	}
	if err := nw.Check(); err != nil {
		return nil, fmt.Errorf("mapper: reconstructed network invalid: %w", err)
	}
	return nw, nil
}
