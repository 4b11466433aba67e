package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// toyConfig shrinks a workload to a few seconds: two small circuits per
// suite pass (many passes, so the latency metrics have enough samples),
// two small serve windows, one timed set-up and four hot keys.
func toyConfig(t *testing.T, workload, pserve string) config {
	cfg := config{
		workload: workload, seed: 1, seconds: 0.1, trace: true,
		pserve: pserve, golden: filepath.Join("testdata", "golden.json"), out: t.TempDir(),
		setupSamples: 1, keys: 4, windows: 2,
	}
	switch workload {
	case "suite-dag":
		cfg.circuits, cfg.seconds = []string{"cm42a", "x2"}, 100
	case "suite-cuts":
		cfg.circuits, cfg.seconds = []string{"cm42a", "alu2"}, 80
	}
	return cfg
}

// TestMain lets the test binary stand in for the benchmark binary when a
// run times its set-up by re-executing itself with --setup-child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func buildPserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pserve")
	cmd := exec.Command("go", "build", "-o", bin, "powermap/cmd/pserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building pserve: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload at toy scale in its traced form, which
// also measures the end-to-end metrics, and checks that both metric sets
// print every declared metric with its unit and that nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts pserve daemons")
	}
	pserve := buildPserve(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := workloads[name](toyConfig(t, name, pserve))
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.values["fail_frac"] != 0 {
				t.Fatalf("%d of %d operations failed (fail_frac %v)", res.failed, res.attempted, res.values["fail_frac"])
			}
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				if err := report(&out, res, traced); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					if !hasMetricLine(out.String(), d) {
						t.Errorf("no %q line with unit %s in:\n%s", d.name, d.unit, out.String())
					}
				}
			}
		})
	}
}

// hasMetricLine reports whether out has a "name value unit" line for d.
func hasMetricLine(out string, d metricDef) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == d.name && f[2] == d.unit {
			return true
		}
	}
	return false
}

// TestSmokeDetectsQoRDrift corrupts one golden value and expects the run
// to count failures.
func TestSmokeDetectsQoRDrift(t *testing.T) {
	golden, err := loadGolden(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	e := golden["dag/cm42a/ref"]
	e.Power += 1e-9
	golden["dag/cm42a/ref"] = e
	data, err := json.Marshal(golden)
	if err != nil {
		t.Fatal(err)
	}
	cfg := toyConfig(t, "suite-dag", "")
	cfg.trace = false
	cfg.golden = filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(cfg.golden, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := runSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 || res.values["fail_frac"] <= 0 {
		t.Fatalf("corrupted golden value went unnoticed: %d of %d failed", res.failed, res.attempted)
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json against the workloads and
// metrics this program declares.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	for _, set := range []struct {
		json []metric
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.json) != len(set.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(set.json), len(set.defs))
			continue
		}
		for i, d := range set.defs {
			if set.json[i].Name != d.name || set.json[i].Unit != d.unit {
				t.Errorf("BENCHMARK.json metric %d is %s %s, program %s %s", i, set.json[i].Name, set.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
