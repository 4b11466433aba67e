// customlib: bring your own netlist and cell library.
//
// The example parses a BLIF netlist and a genlib library from strings (in
// a real flow these come from files), synthesizes with the power-delay
// mapper, prints the report, and round-trips the mapped netlist through
// the SIS mapped-BLIF form, re-verifying functional equivalence.
//
// Run with: go run ./examples/customlib
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"powermap"
	"powermap/internal/mapper"
)

// A one-bit full adder, as a tool would dump it.
const adderBlif = `
.model fulladder
.inputs a b cin
.outputs sum cout
.names a b axb
10 1
01 1
.names axb cin sum
10 1
01 1
.names a b g
11 1
.names axb cin p
11 1
.names g p cout
1- 1
-1 1
.end
`

// A deliberately tiny library: inverter, NAND2 at two strengths, NOR2 and
// an AOI21. Mapping must still cover everything (inverter + NAND2 suffice;
// the rest improve quality).
const tinyGenlib = `
GATE not1  10 O=!a;        PIN * INV 1.0 999 0.3 0.8 0.3 0.8
GATE nd2   16 O=!(a*b);    PIN * INV 1.0 999 0.4 0.8 0.4 0.8
GATE nd2h  24 O=!(a*b);    PIN * INV 1.9 999 0.35 0.45 0.35 0.45
GATE nr2   16 O=!(a+b);    PIN * INV 1.2 999 0.5 1.0 0.5 1.0
GATE ao21  24 O=!(a*b+c);  PIN * INV 1.6 999 0.55 1.0 0.55 1.0
`

func main() {
	nw, err := powermap.ParseBLIFString(adderBlif)
	if err != nil {
		log.Fatal(err)
	}
	lib, err := powermap.ParseGenlib(strings.NewReader(tinyGenlib))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("library: %d cells, default load %.2f, max %d inputs\n",
		len(lib.Cells), lib.DefaultLoad(), lib.MaxInputs())

	res, err := powermap.Synthesize(nw, powermap.Options{
		Method:  powermap.MethodV,
		Style:   powermap.Static,
		Library: lib,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := powermap.Verify(nw, res); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mapped full adder: %d gates, area %.0f, delay %.2f ns, power %.2f uW\n",
		res.Report.Gates, res.Report.GateArea, res.Report.Delay, res.Report.PowerUW)
	for _, cc := range res.Netlist.CellCounts() {
		fmt.Printf("  %-6s x%d\n", cc.Name, cc.Count)
	}

	// Round-trip through mapped BLIF and re-check equivalence against the
	// subject graph.
	var sb strings.Builder
	if err := res.Netlist.WriteBLIF(&sb); err != nil {
		log.Fatal(err)
	}
	back, err := mapper.ReadMappedBLIF(strings.NewReader(sb.String()), lib)
	if err != nil {
		log.Fatal(err)
	}
	if err := powermap.ProveEquivalent(context.Background(), res.Decomp.Network, back); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmapped BLIF round trip: proved equivalent to the subject graph")
	fmt.Println("\nmapped BLIF:")
	fmt.Print(sb.String())
}
