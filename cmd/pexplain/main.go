// Command pexplain queries the decision-provenance journals written by
// pmap/powerest/pcheck/tables -journal: JSONL files recording every
// decomposition tree, mapper match and per-gate power attribution of a
// synthesis run.
//
// Usage:
//
//	pexplain top -n 20 run.jsonl
//	pexplain why -gate g42 run.jsonl
//	pexplain diff a.jsonl b.jsonl
//	pexplain diff -json x2-I.jsonl x2-V.jsonl
package main

import (
	"fmt"
	"os"

	"powermap/internal/cli"
)

func main() {
	if err := cli.Pexplain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pexplain:", err)
		os.Exit(1)
	}
}
