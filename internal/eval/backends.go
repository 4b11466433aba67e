package eval

import (
	"context"
	"fmt"
	"strings"

	"powermap/internal/core"
	"powermap/internal/exec"
	"powermap/internal/mapper"
	"powermap/internal/obs"
	"powermap/internal/power"
	"powermap/internal/verify"
)

// BackendRow is one benchmark's structural-vs-cuts mapper comparison under
// common timing constraints.
type BackendRow struct {
	Circuit    string
	Structural power.Report
	Cuts       power.Report
}

// CompareBackends synthesizes every named benchmark with the given method
// under both mapper backends. The RunSuite protocol applies: a structural
// reference run fixes each circuit's per-output required times, and both
// backends are then mapped under those common constraints, so the rows
// compare matching power/area at equal performance. Every run is
// self-verifying (source ≡ optimized ≡ decomposed ≡ mapped). Each leg sets
// its own Mapper (the structural leg is the DAG mapper); base.LUT applies
// to the cuts leg only. A nil or empty names slice runs the full suite.
func CompareBackends(ctx context.Context, base core.Options, method core.Method, names []string) ([]BackendRow, error) {
	suite, err := suiteOf(names)
	if err != nil {
		return nil, err
	}
	ctx = obs.WithScope(ctx, base.Obs)
	workers, inner := splitWorkers(base.Workers)
	rows, err := exec.Map(exec.WithLabel(ctx, "eval.backends"), workers, len(suite), func(ctx context.Context, i int) (BackendRow, error) {
		b := suite[i]
		ctx = obs.WithLabels(ctx, "circuit", b.Name, "method", method.String())
		span := base.Obs.StartCtx(ctx, "eval.backends")
		defer span.End()
		run := func(backend mapper.Backend, req map[string]float64) (*core.Result, error) {
			o := base
			o.Method = method
			o.Mapper = backend
			if backend != mapper.BackendCuts {
				o.LUT = 0 // LUT mode only applies to the cuts leg
			}
			o.PORequired = req
			o.Workers = inner
			src := b.Build()
			res, err := core.SynthesizeContext(ctx, src, o)
			if err != nil {
				return nil, fmt.Errorf("eval: %s %s backend: %w", b.Name, backend, err)
			}
			if err := verify.CheckResult(ctx, src, res); err != nil {
				return nil, fmt.Errorf("eval: %s %s backend: %w", b.Name, backend, err)
			}
			return res, nil
		}
		ref, err := run(mapper.BackendStructural, nil)
		if err != nil {
			return BackendRow{}, err
		}
		req := ref.Netlist.OutputArrivals()
		for name, t := range req {
			req[name] = t * 1.001
		}
		structural, err := run(mapper.BackendStructural, req)
		if err != nil {
			return BackendRow{}, err
		}
		cuts, err := run(mapper.BackendCuts, req)
		if err != nil {
			return BackendRow{}, err
		}
		return BackendRow{Circuit: b.Name, Structural: structural.Report, Cuts: cuts.Report}, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatBackendTable renders the structural-vs-cuts comparison with
// per-circuit percentage deltas and a mean-change footer.
func FormatBackendTable(rows []BackendRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s | %21s | %21s | %s\n", "circuit", "structural", "cuts", "delta")
	fmt.Fprintf(&b, "%-8s | %6s %6s %7s | %6s %6s %7s | %7s %7s\n",
		"", "area", "delay", "power", "area", "delay", "power", "area%", "power%")
	var sumArea, sumPower float64
	for _, r := range rows {
		da := pct(r.Cuts.GateArea, r.Structural.GateArea)
		dp := pct(r.Cuts.PowerUW, r.Structural.PowerUW)
		sumArea += da
		sumPower += dp
		fmt.Fprintf(&b, "%-8s | %6.0f %6.2f %7.1f | %6.0f %6.2f %7.1f | %+6.1f%% %+6.1f%%\n",
			r.Circuit,
			r.Structural.GateArea, r.Structural.Delay, r.Structural.PowerUW,
			r.Cuts.GateArea, r.Cuts.Delay, r.Cuts.PowerUW, da, dp)
	}
	if n := len(rows); n > 0 {
		fmt.Fprintf(&b, "%-8s | %21s | %21s | %+6.1f%% %+6.1f%%\n",
			"mean", "", "", sumArea/float64(n), sumPower/float64(n))
	}
	return b.String()
}
