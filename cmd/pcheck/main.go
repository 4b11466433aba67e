// Command pcheck formally verifies the synthesis flow: it proves the
// source network, the optimized network, the decomposed subject graph and
// the mapped netlist combinationally equivalent with global ROBDDs, audits
// every power-delay curve for the non-inferiority invariant, cross-checks
// the mapped report against independent recomputations, and can fuzz the
// whole pipeline over seeded random networks or check the Huffman and
// package-merge constructions against an exhaustive enumeration oracle.
// Any violation is reported — with a counterexample input cube when the
// failure is functional — and the command exits nonzero.
//
// Usage:
//
//	pcheck -circuit cm42a -methods all
//	pcheck -blif circuit.blif -lib my.genlib -methods I,VI -mapper tree
//	pcheck -random 50 -seed 7 -workers 8
//	pcheck -huffman 100 -style domino-p
//	pcheck -circuit cm42a -inject   # self-test: must exit nonzero
package main

import (
	"fmt"
	"os"

	"powermap/internal/cli"
)

func main() {
	if err := cli.Pcheck(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pcheck:", err)
		os.Exit(1)
	}
}
