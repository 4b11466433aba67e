package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"strings"

	"powermap/internal/journal"
)

// Pexplain runs the pexplain command: querying and diffing the decision
// journals written by pmap/powerest/pcheck/tables -journal. Three subcommands:
//
//	pexplain top  [-n 20] [-json] run.jsonl        where do the microwatts go
//	pexplain why  -gate NAME [-json] run.jsonl     why this gate: attribution -> match -> tree
//	pexplain diff [-n 20] [-json] a.jsonl b.jsonl  what changed between two runs
func Pexplain(args []string, out, errOut io.Writer) error {
	if len(args) < 1 {
		fmt.Fprint(errOut, pexplainUsage)
		return fmt.Errorf("need a subcommand: top, why or diff")
	}
	switch args[0] {
	case "top":
		return pexplainTop(args[1:], out, errOut)
	case "why":
		return pexplainWhy(args[1:], out, errOut)
	case "diff":
		return pexplainDiff(args[1:], out, errOut)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(out, pexplainUsage)
		return nil
	}
	fmt.Fprint(errOut, pexplainUsage)
	return fmt.Errorf("unknown subcommand %q (want top, why or diff)", args[0])
}

const pexplainUsage = `usage:
  pexplain top  [-n N] [-json] run.jsonl         rank signals by attributed power
  pexplain why  -gate NAME [-json] run.jsonl     explain one gate's power end to end
  pexplain diff [-n N] [-json] a.jsonl b.jsonl   per-gate power deltas between two runs
`

// describeRun is the one-line run identity printed above every table.
func describeRun(h journal.Header) string {
	var b strings.Builder
	fmt.Fprintf(&b, "run %s", h.RunID)
	if h.Circuit != "" {
		fmt.Fprintf(&b, "  circuit %s", h.Circuit)
	}
	if h.Method != "" {
		fmt.Fprintf(&b, "  method %s", h.Method)
	}
	if h.Strategy != "" || h.Objective != "" {
		fmt.Fprintf(&b, " (%s + %s)", h.Strategy, h.Objective)
	}
	if h.Stage != "" {
		fmt.Fprintf(&b, "  stage %s", h.Stage)
	}
	return b.String()
}

func pexplainTop(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pexplain top", flag.ContinueOnError)
	fs.SetOutput(errOut)
	n := fs.Int("n", 20, "number of signals to print (0 = all)")
	asJSON := fs.Bool("json", false, "emit JSON instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("pexplain top: need exactly one journal file")
	}
	run, err := journal.ReadRunFile(fs.Arg(0))
	if err != nil {
		return err
	}
	rows := make([]journal.GatePower, len(run.Gates))
	copy(rows, run.Gates)
	// Largest consumers first; ties break on name for stable output.
	sortGatePower(rows)
	if *n > 0 && len(rows) > *n {
		rows = rows[:*n]
	}
	if *asJSON {
		return writeJSON(out, struct {
			Header journal.Header      `json:"header"`
			Report *journal.Report     `json:"report,omitempty"`
			Gates  []journal.GatePower `json:"gates"`
		}{run.Header, run.Report, rows})
	}
	fmt.Fprintln(out, describeRun(run.Header))
	total := 0.0
	if run.Report != nil {
		total = run.Report.PowerUW
		fmt.Fprintf(out, "total %.2f uW over %d gates (attributed %.2f uW, delay %.2f ns, area %.0f)\n",
			run.Report.PowerUW, run.Report.Gates, run.Report.AttributedUW,
			run.Report.DelayNs, run.Report.Area)
	}
	fmt.Fprintf(out, "\n%-14s %-10s %7s %9s %10s %7s\n", "signal", "cell", "load", "activity", "power_uw", "share")
	for _, g := range rows {
		share := "-"
		if total > 0 {
			share = fmt.Sprintf("%5.1f%%", 100*g.PowerUW/total)
		}
		cell := g.Cell
		if cell == "" {
			cell = "(source)"
		}
		fmt.Fprintf(out, "%-14s %-10s %7.2f %9.3f %10.3f %7s\n",
			g.Signal, cell, g.Load, g.Activity, g.PowerUW, share)
	}
	return nil
}

func sortGatePower(rows []journal.GatePower) {
	for i := 1; i < len(rows); i++ { // insertion sort: rows are short-ish and mostly ordered
		for j := i; j > 0; j-- {
			a, b := rows[j-1], rows[j]
			if a.PowerUW > b.PowerUW || (a.PowerUW == b.PowerUW && a.Signal <= b.Signal) {
				break
			}
			rows[j-1], rows[j] = b, a
		}
	}
}

// whyReport is the JSON shape of pexplain why: the three provenance layers
// for one signal, outermost first.
type whyReport struct {
	Header journal.Header      `json:"header"`
	Gate   *journal.GatePower  `json:"gate,omitempty"`
	Site   *journal.MapSite    `json:"site,omitempty"`
	Decomp *journal.DecompNode `json:"decomp,omitempty"`
}

func pexplainWhy(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pexplain why", flag.ContinueOnError)
	fs.SetOutput(errOut)
	gate := fs.String("gate", "", "signal/gate name to explain (required)")
	asJSON := fs.Bool("json", false, "emit JSON instead of a report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gate == "" {
		return fmt.Errorf("pexplain why: -gate NAME is required")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("pexplain why: need exactly one journal file")
	}
	run, err := journal.ReadRunFile(fs.Arg(0))
	if err != nil {
		return err
	}
	rep := whyReport{
		Header: run.Header,
		Gate:   run.Gate(*gate),
		Site:   run.Site(*gate),
		Decomp: run.DecompNodeByName(*gate),
	}
	if rep.Gate == nil && rep.Site == nil && rep.Decomp == nil {
		return fmt.Errorf("pexplain why: no events for %q in %s (try pexplain top to list signals)", *gate, fs.Arg(0))
	}
	if *asJSON {
		return writeJSON(out, rep)
	}
	fmt.Fprintln(out, describeRun(run.Header))
	fmt.Fprintf(out, "signal %s\n", *gate)
	if g := rep.Gate; g != nil {
		cell := g.Cell
		if cell == "" {
			cell = "(source signal: charges the pins it drives)"
		}
		fmt.Fprintf(out, "\npower: %.3f uW = load %.2f x activity %.3f (Equation 1), cell %s\n",
			g.PowerUW, g.Load, g.Activity, cell)
	}
	if s := rep.Site; s != nil {
		fmt.Fprintf(out, "\nmapping: %s covers the node (%d library matches, %d curve points kept)\n",
			s.Cell, s.Matches, s.CurvePoints)
		fmt.Fprintf(out, "  required %.3f ns, arrival %.3f ns under final load %.2f; cone cost %.3f\n",
			s.Required, s.Arrival, s.Load, s.Cost)
		if s.NPNClass != "" {
			fmt.Fprintf(out, "  cut backend: NPN class %s over cut leaves (%s)\n",
				s.NPNClass, strings.Join(s.CutLeaves, ", "))
		}
		fmt.Fprintf(out, "  selected because: %s\n", s.Why)
		if len(s.Candidates) > 0 {
			fmt.Fprintf(out, "  curve (arrivals at default load):\n")
			for _, c := range s.Candidates {
				mark := " "
				if c.Chosen {
					mark = "*"
				}
				fmt.Fprintf(out, "   %s %-10s arrival %8.3f ns  cost %9.3f\n", mark, c.Cell, c.Arrival, c.Cost)
			}
		}
	}
	if dn := rep.Decomp; dn != nil {
		fmt.Fprintf(out, "\ndecomposition: %s tree over %d leaves (%d cubes), height %d (min %d)\n",
			dn.Tree, dn.Leaves, dn.Cubes, dn.Height, dn.MinHeight)
		if dn.Rebuilt {
			fmt.Fprintf(out, "  rebuilt by the bounded-height pass\n")
		}
		if dn.Stuck {
			fmt.Fprintf(out, "  bounded-height pass could not reduce it further\n")
		}
		if dn.Exact {
			fmt.Fprintf(out, "  priced with global-BDD activities (costs below are the independence view)\n")
		}
		if len(dn.Inputs) > 0 {
			fmt.Fprintf(out, "  inputs (prob -> activity):\n")
			for _, in := range dn.Inputs {
				fmt.Fprintf(out, "    %-12s p=%.3f  E=%.3f\n", in.Signal, in.Prob, in.Activity)
			}
		}
		if len(dn.Merges) > 0 {
			fmt.Fprintf(out, "  merge trail (#k = k-th merge below):\n")
			for k, m := range dn.Merges {
				fmt.Fprintf(out, "    #%-3d %-3s (%s, %s)  p=%.3f  cost=%.3f\n", k, m.Gate, m.A, m.B, m.Prob, m.Cost)
			}
		}
	}
	return nil
}

func pexplainDiff(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pexplain diff", flag.ContinueOnError)
	fs.SetOutput(errOut)
	n := fs.Int("n", 20, "number of gate deltas to print (0 = all; JSON always carries all)")
	asJSON := fs.Bool("json", false, "emit the full diff as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("pexplain diff: need exactly two journal files")
	}
	a, err := journal.ReadRunFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := journal.ReadRunFile(fs.Arg(1))
	if err != nil {
		return err
	}
	d := journal.DiffRuns(a, b)
	if *asJSON {
		return writeJSON(out, d)
	}
	fmt.Fprintf(out, "A: %s\n", describeRun(d.A))
	fmt.Fprintf(out, "B: %s\n", describeRun(d.B))
	fmt.Fprintf(out, "\n%-10s %12s %12s %12s\n", "", "A", "B", "delta")
	fmt.Fprintf(out, "%-10s %12d %12d %12d\n", "gates", d.GatesA, d.GatesB, d.GatesB-d.GatesA)
	fmt.Fprintf(out, "%-10s %12.0f %12.0f %12.0f\n", "area", d.AreaA, d.AreaB, d.AreaB-d.AreaA)
	fmt.Fprintf(out, "%-10s %12.3f %12.3f %12.3f\n", "delay_ns", d.DelayA, d.DelayB, d.DelayB-d.DelayA)
	fmt.Fprintf(out, "%-10s %12.3f %12.3f %12.3f\n", "power_uw", d.PowerA, d.PowerB, d.PowerDelta)
	fmt.Fprintf(out, "\nper-gate deltas sum to %.9f uW (report delta %.9f uW, residue %.2g)\n",
		d.GateDeltaSum, d.PowerDelta, math.Abs(d.GateDeltaSum-d.PowerDelta))
	rows := d.Gates
	if *n > 0 && len(rows) > *n {
		rows = rows[:*n]
	}
	fmt.Fprintf(out, "\n%-14s %-10s %-10s %10s %10s %10s\n", "signal", "cell A", "cell B", "power A", "power B", "delta")
	for _, g := range rows {
		ca, cb := g.CellA, g.CellB
		switch g.OnlyIn {
		case "a":
			cb = "(absent)"
		case "b":
			ca = "(absent)"
		}
		fmt.Fprintf(out, "%-14s %-10s %-10s %10.3f %10.3f %+10.3f\n",
			g.Signal, ca, cb, g.PowerA, g.PowerB, g.Delta)
	}
	if len(rows) < len(d.Gates) {
		fmt.Fprintf(out, "... %d more (rerun with -n 0 or -json for all)\n", len(d.Gates)-len(rows))
	}
	if len(d.Decisions) > 0 {
		fmt.Fprintf(out, "\ndecision changes:\n")
		for _, dd := range d.Decisions {
			fmt.Fprintf(out, "  %-5s %-14s %s -> %s\n", dd.Kind, dd.Node, dd.A, dd.B)
		}
	}
	return nil
}

func writeJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
