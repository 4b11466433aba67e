package mapper

import (
	"context"
	"testing"

	"powermap/internal/genlib"
)

func TestRecoverDriveReducesPower(t *testing.T) {
	sub, model := subject(t, smallBlif)
	lib := genlib.Lib2()
	// Map tightly so high-drive variants get used.
	nl, err := Map(context.Background(), sub, model, Options{Objective: AreaDelay, Library: lib, Relax: relax(0.0001)})
	if err != nil {
		t.Fatal(err)
	}
	before := nl.Report
	// Generous budget: 1.5× the achieved delay leaves room to downsize.
	required := map[string]float64{}
	for name, a := range nl.OutputArrivals() {
		required[name] = a * 1.5
	}
	swaps := nl.RecoverDrive(lib, required)
	after := nl.Report
	if swaps == 0 {
		t.Skip("no resizable gates in this mapping")
	}
	if after.PowerUW > before.PowerUW+1e-9 {
		t.Errorf("recovery increased power: %.3f -> %.3f", before.PowerUW, after.PowerUW)
	}
	if !nl.meetsRequired(required) {
		t.Error("recovery violated the required times")
	}
	if err := nl.Verify(model); err != nil {
		t.Fatalf("recovery broke functionality: %v", err)
	}
}

func TestRecoverDriveFrozenDelay(t *testing.T) {
	sub, model := subject(t, smallBlif)
	lib := genlib.Lib2()
	nl, err := Map(context.Background(), sub, model, Options{Objective: PowerDelay, Library: lib, Relax: relax(0.2)})
	if err != nil {
		t.Fatal(err)
	}
	before := nl.Report
	nl.RecoverDrive(lib, nil) // nil: freeze current delay
	if nl.Report.Delay > before.Delay+1e-9 {
		t.Errorf("frozen-delay recovery slowed the circuit: %.3f -> %.3f",
			before.Delay, nl.Report.Delay)
	}
	if nl.Report.PowerUW > before.PowerUW+1e-9 {
		t.Errorf("recovery increased power: %.3f -> %.3f", before.PowerUW, nl.Report.PowerUW)
	}
}

func TestEquivalenceClasses(t *testing.T) {
	lib := genlib.Lib2()
	classes := equivalenceClasses(lib)
	// The three inverters form one class, sorted by pin load.
	invs := classes[cellClassKey(lib.CellByName("inv1"))]
	if len(invs) != 4 {
		t.Fatalf("inverter class has %d members, want 4", len(invs))
	}
	if invs[0].Name != "inv1" || invs[3].Name != "inv8" {
		t.Errorf("inverter class order: %v %v %v", invs[0].Name, invs[1].Name, invs[3].Name)
	}
	// nand2 and nand2x share a class; nand3 does not.
	nds := classes[cellClassKey(lib.CellByName("nand2"))]
	if len(nds) != 2 {
		t.Errorf("nand2 class has %d members, want 2", len(nds))
	}
	for _, c := range nds {
		if c.Name == "nand3" {
			t.Error("nand3 grouped with nand2")
		}
	}
}
