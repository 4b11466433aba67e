package powermap_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"powermap"
)

// ExampleSynthesize runs the full power-aware flow on a small netlist.
func ExampleSynthesize() {
	nw, err := powermap.ParseBLIFString(`
.model demo
.inputs a b c d
.outputs y
.names a b t
11 1
.names c d u
11 1
.names t u y
1- 1
-1 1
.end
`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := powermap.Synthesize(nw, powermap.Options{
		Method: powermap.MethodV,
		Style:  powermap.Static,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := powermap.Verify(nw, res); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mapped %d gates, functionally verified\n", res.Report.Gates)
	// Output: mapped 3 gates, functionally verified
}

// ExampleEstimateActivities computes exact switching activities (the
// Equation 2 BDD traversal) for the paper's Figure 1 instance.
func ExampleEstimateActivities() {
	nw, probs := powermap.Figure1()
	if _, err := powermap.EstimateActivities(nw, probs, powermap.DominoP); err != nil {
		log.Fatal(err)
	}
	y := nw.NodeByName("y")
	fmt.Printf("P(a*b*c*d = 1) = %.3f\n", y.Prob1)
	// Output: P(a*b*c*d = 1) = 0.042
}

// ExampleTable1 regenerates a reduced version of the paper's Table 1.
func ExampleTable1() {
	rows := powermap.Table1(50, 1993)
	fmt.Printf("n=3 optimality: %.0f%%\n", rows[0].PercentOptimal)
	// Output: n=3 optimality: 100%
}

// ExampleCreateJournal journals why each gate of a cm42a run was chosen,
// proves the run against its source, and reads the journal back as
// pexplain does.
func ExampleCreateJournal() {
	dir, err := os.MkdirTemp("", "journal")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cm42a.jsonl")

	b, err := powermap.BenchmarkByName("cm42a")
	if err != nil {
		log.Fatal(err)
	}
	nw := b.Build()
	jr, err := powermap.CreateJournal(path, powermap.JournalHeader{Circuit: nw.Name, Method: "VI"})
	if err != nil {
		log.Fatal(err)
	}
	res, err := powermap.Synthesize(nw, powermap.Options{Method: powermap.MethodVI, Journal: jr})
	if err != nil {
		log.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		log.Fatal(err)
	}
	if err := powermap.VerifyContext(context.Background(), nw, res); err != nil {
		log.Fatal(err)
	}
	run, err := powermap.ReadJournal(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d gates, %d map.site records\n", run.Header.Circuit, run.Report.Gates, len(run.Sites))
	// Output: cm42a: 23 gates, 23 map.site records
}

// ExampleNewJournal journals a run to any writer, here a buffer.
func ExampleNewJournal() {
	nw, probs := powermap.Figure1()
	var buf bytes.Buffer
	jr := powermap.NewJournal(&buf, powermap.JournalHeader{RunID: "figure1"})
	if _, err := powermap.Synthesize(nw, powermap.Options{PIProb: probs, Journal: jr}); err != nil {
		log.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run %s: %d records\n", jr.RunID(), strings.Count(buf.String(), "\n"))
	// Output: run figure1: 14 records
}
