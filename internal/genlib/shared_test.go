package genlib_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"powermap/internal/circuits"
	"powermap/internal/core"
	"powermap/internal/genlib"
	"powermap/internal/mapper"
	"powermap/internal/verify"
)

// TestLib2StaysReadOnly: Lib2 hands every caller one shared library, so
// no stage of the flow may change it. Every method on every mapper
// backend, the oracle, drive recovery and the mapped-BLIF reader run on
// it; afterwards it must still equal a fresh parse of the embedded text.
func TestLib2StaysReadOnly(t *testing.T) {
	ctx := context.Background()
	src, err := circuits.ByName("cm42a")
	if err != nil {
		t.Fatal(err)
	}
	nw := src.Build()
	backends := []struct {
		name string
		o    core.Options
	}{
		{"dag", core.Options{}},
		{"tree", core.Options{Mapper: mapper.BackendTree}},
		{"cuts", core.Options{Mapper: mapper.BackendCuts}},
		{"cuts -lut 4", core.Options{Mapper: mapper.BackendCuts, LUT: 4}},
	}
	for _, b := range backends {
		for _, m := range core.Methods() {
			o := b.o
			o.Method = m
			res, err := core.SynthesizeContext(ctx, nw, o)
			if err != nil {
				t.Fatalf("%s Method %s: %v", b.name, m, err)
			}
			if res.Options.Library != genlib.Lib2() {
				t.Fatalf("%s Method %s: the run did not use the shared library", b.name, m)
			}
			if err := verify.CheckResult(ctx, nw, res); err != nil {
				t.Fatalf("%s Method %s: %v", b.name, m, err)
			}
			if b.o.LUT != 0 {
				continue // a LUT netlist's cells are not in the library
			}
			res.Netlist.RecoverDrive(genlib.Lib2(), nil)
			var text bytes.Buffer
			if err := res.Netlist.WriteBLIF(&text); err != nil {
				t.Fatal(err)
			}
			if _, err := mapper.ReadMappedBLIF(&text, genlib.Lib2()); err != nil {
				t.Fatalf("%s Method %s: %v", b.name, m, err)
			}
		}
	}
	fresh, err := genlib.ParseString(genlib.Lib2Text)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Name = "lib2"
	if !reflect.DeepEqual(genlib.Lib2(), fresh) {
		t.Fatal("the flow changed the shared library: Lib2() no longer equals a fresh parse")
	}
}
