package genlib

import "sync"

// lib2Text is an embedded MCNC lib2-style standard-cell library. The gate
// variety (inverters and NANDs at several drive strengths, NOR/AND/OR,
// AOI/OAI complex gates, XOR/XNOR) and the value ranges (areas in
// grid units, delays in ns, loads in standardized capacitance units)
// follow the structure of lib2.genlib; the exact numbers are synthetic.
// See DESIGN.md section 2 for the substitution rationale.
//
// PIN fields: name phase input-load max-load rise-block rise-drive
// fall-block fall-drive.
// Input capacitances grow with transistor stack depth: wide NAND/NOR and
// complex AOI/OAI gates keep series devices upsized to preserve drive, so
// their pins load the fanin nets more than a NAND2's. This is the physical
// asymmetry between area cost and capacitance cost that power-aware
// covering exploits (area-cheap wide gates are cap-expensive).
const lib2Text = `
# powermap embedded library, lib2-style.
GATE inv1   16 O=!a;             PIN * INV 1.0 999 0.40 0.90 0.40 0.90
GATE inv2   24 O=!a;             PIN * INV 2.0 999 0.32 0.48 0.32 0.48
GATE inv4   40 O=!a;             PIN * INV 4.0 999 0.27 0.25 0.27 0.25
GATE nand2  24 O=!(a*b);         PIN * INV 1.0 999 0.45 0.90 0.45 0.90
GATE nand2x 36 O=!(a*b);         PIN * INV 2.0 999 0.38 0.48 0.38 0.48
GATE nand3  32 O=!(a*b*c);       PIN * INV 1.8 999 0.60 1.00 0.60 1.00
GATE nand4  40 O=!(a*b*c*d);     PIN * INV 2.6 999 0.80 1.10 0.80 1.10
GATE nor2   24 O=!(a+b);         PIN * INV 1.2 999 0.55 1.10 0.55 1.10
GATE nor2x  36 O=!(a+b);         PIN * INV 2.2 999 0.46 0.58 0.46 0.58
GATE nor3   36 O=!(a+b+c);       PIN * INV 2.1 999 0.80 1.30 0.80 1.30
GATE nor4   48 O=!(a+b+c+d);     PIN * INV 3.0 999 1.10 1.50 1.10 1.50
GATE and2   32 O=a*b;            PIN * NONINV 1.0 999 0.70 0.95 0.70 0.95
GATE and3   40 O=a*b*c;          PIN * NONINV 1.7 999 0.88 1.00 0.88 1.00
GATE and4   48 O=a*b*c*d;        PIN * NONINV 2.4 999 1.05 1.05 1.05 1.05
GATE or2    32 O=a+b;            PIN * NONINV 1.1 999 0.75 1.00 0.75 1.00
GATE or3    40 O=a+b+c;          PIN * NONINV 1.9 999 0.95 1.10 0.95 1.10
GATE or4    48 O=a+b+c+d;        PIN * NONINV 2.7 999 1.15 1.20 1.15 1.20
GATE aoi21  32 O=!(a*b+c);       PIN * INV 1.7 999 0.62 1.10 0.62 1.10
GATE aoi22  40 O=!(a*b+c*d);     PIN * INV 2.0 999 0.72 1.20 0.72 1.20
GATE aoi211 40 O=!(a*b+c+d);     PIN * INV 2.2 999 0.82 1.25 0.82 1.25
GATE oai21  32 O=!((a+b)*c);     PIN * INV 1.7 999 0.62 1.10 0.62 1.10
GATE oai22  40 O=!((a+b)*(c+d)); PIN * INV 2.0 999 0.72 1.20 0.72 1.20
GATE oai211 40 O=!((a+b)*c*d);   PIN * INV 2.2 999 0.82 1.25 0.82 1.25
GATE xor2   56 O=a*!b+!a*b;      PIN * UNKNOWN 2.2 999 1.10 1.30 1.10 1.30
GATE xnor2  56 O=a*b+!a*!b;     PIN * UNKNOWN 2.2 999 1.10 1.30 1.10 1.30
GATE inv8   72 O=!a;                     PIN * INV 8.0 999 0.24 0.13 0.24 0.13
GATE nand3x 48 O=!(a*b*c);               PIN * INV 3.4 999 0.52 0.54 0.52 0.54
GATE nor3x  54 O=!(a+b+c);               PIN * INV 3.8 999 0.68 0.70 0.68 0.70
GATE aoi221 48 O=!(a*b+c*d+e);           PIN * INV 2.4 999 0.90 1.30 0.90 1.30
GATE oai221 48 O=!((a+b)*(c+d)*e);       PIN * INV 2.4 999 0.90 1.30 0.90 1.30
GATE aoi222 56 O=!(a*b+c*d+e*f);         PIN * INV 2.6 999 1.00 1.40 1.00 1.40
GATE oai222 56 O=!((a+b)*(c+d)*(e+f));   PIN * INV 2.6 999 1.00 1.40 1.00 1.40
GATE mux21  48 O=a*s+b*!s;               PIN * UNKNOWN 1.6 999 0.95 1.20 0.95 1.20
GATE maj3   40 O=a*b+a*c+b*c;            PIN * NONINV 1.9 999 0.92 1.15 0.92 1.15
`

// Lib2 returns the embedded lib2-style library: parsed once, shared,
// read-only. The first call parses it and every call returns that one
// value, so no caller may change it.
func Lib2() *Library { return lib2() }

var lib2 = sync.OnceValue(func() *Library {
	lib, err := ParseString(lib2Text)
	if err != nil {
		panic("genlib: embedded library is invalid: " + err.Error())
	}
	lib.Name = "lib2"
	return lib
})
