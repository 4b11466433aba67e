package cli

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powermap/internal/bdd"
	"powermap/internal/blif"
	"powermap/internal/obs"
	"powermap/internal/verify"
)

// writeWideBlif writes a deliberately too-wide random network — 40 primary
// inputs feeding 60 nodes — whose global BDDs blow through a small node
// limit long before completion.
func writeWideBlif(t *testing.T) string {
	t.Helper()
	nw := verify.RandomNetwork("toowide", verify.RandConfig{
		Seed: 7, PIs: 40, Nodes: 60, MaxFanin: 4, Depth: 5, Outputs: 4,
	})
	path := filepath.Join(t.TempDir(), "wide.blif")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := blif.Write(f, nw); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPmapTooWideFailsCleanly drives the full pmap flow into the BDD node
// limit and demands a diagnostic error, never a panic: the limit must
// surface as bdd.ErrNodeLimit end to end with the remedy hint attached,
// and the hint must offer only what pmap can do.
func TestPmapTooWideFailsCleanly(t *testing.T) {
	path := writeWideBlif(t)
	var out, errOut bytes.Buffer
	err := Pmap([]string{"-blif", path, "-method", "I", "-bdd-limit", "128"}, &out, &errOut)
	if err == nil {
		t.Fatal("pmap accepted a network wider than the node limit")
	}
	if !bdd.IsNodeLimit(err) {
		t.Fatalf("error does not carry bdd.ErrNodeLimit: %v", err)
	}
	if !strings.Contains(err.Error(), "raise the node limit") {
		t.Errorf("remedy missing from error: %v", err)
	}
	if strings.Contains(err.Error(), "approximate activities") {
		t.Errorf("synthesis has no approximate fallback, but the error offers one: %v", err)
	}
}

// TestPcheckTooWideFailsCleanly runs the verification oracle into the node
// limit; pcheck must return the wrapped limit error so the command exits
// nonzero with a diagnostic instead of crashing.
func TestPcheckTooWideFailsCleanly(t *testing.T) {
	path := writeWideBlif(t)
	var out, errOut bytes.Buffer
	err := Pcheck([]string{"-blif", path, "-methods", "I", "-bdd-limit", "128"}, &out, &errOut)
	if err == nil {
		t.Fatal("pcheck accepted a network wider than the node limit")
	}
	if !bdd.IsNodeLimit(err) {
		t.Fatalf("error does not carry bdd.ErrNodeLimit: %v", err)
	}
}

// TestPowerestApproxFallback checks both halves of the approximate-activity
// fallback contract: with exact activities a too-wide network is a clean
// node-limit error; with -activity auto the command succeeds and labels its
// activities as Monte-Carlo approximations.
func TestPowerestApproxFallback(t *testing.T) {
	path := writeWideBlif(t)

	var out, errOut bytes.Buffer
	err := Powerest([]string{"-blif", path, "-bdd-limit", "128"}, &out, &errOut)
	if err == nil {
		t.Fatal("exact powerest accepted a too-wide network")
	}
	if !bdd.IsNodeLimit(err) {
		t.Fatalf("error does not carry bdd.ErrNodeLimit: %v", err)
	}
	if !strings.Contains(err.Error(), "-activity auto") {
		t.Errorf("exact-engine error does not offer the sampling fallback: %v", err)
	}

	out.Reset()
	errOut.Reset()
	err = Powerest([]string{"-blif", path, "-bdd-limit", "128", "-activity", "auto", "-vectors", "512"}, &out, &errOut)
	if err != nil {
		t.Fatalf("approximate fallback failed: %v", err)
	}
	if !strings.Contains(out.String(), "activities are approximate") {
		t.Errorf("fallback output not labeled approximate:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "falling back to approximate activities") {
		t.Errorf("fallback not announced on the diagnostic stream:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), "total internal switching activity") {
		t.Errorf("fallback produced no activity report:\n%s", out.String())
	}
}

// TestPowerestAutoSampling drives the -activity auto policy into the node
// limit: where exact estimation fails cleanly, auto must succeed by
// sampling, label the output as approximate, and report the interval
// quality. A deterministic seed keeps the transcript reproducible.
func TestPowerestAutoSampling(t *testing.T) {
	path := writeWideBlif(t)
	var out, errOut bytes.Buffer
	err := Powerest([]string{
		"-blif", path, "-bdd-limit", "128",
		"-activity", "auto", "-vectors", "2048", "-seed", "5",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("-activity auto failed where it must sample: %v\n%s", err, errOut.String())
	}
	for _, want := range []string{
		"activities are approximate (2048 Monte-Carlo vectors; exact BDDs exceeded the node limit)",
		"max activity CI half-width",
		"total internal switching activity",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "Monte-Carlo seed 5") {
		t.Errorf("seed not echoed on the diagnostic stream:\n%s", errOut.String())
	}

	// Forced sampling skips the exact attempt entirely: no fallback
	// diagnostic, a different reason label, and still a clean exit.
	out.Reset()
	errOut.Reset()
	err = Powerest([]string{
		"-blif", path, "-bdd-limit", "128",
		"-activity", "sample", "-vectors", "1024", "-seed", "5",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("-activity sample failed: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "sampling engine selected") {
		t.Errorf("forced sampling not labeled as selected:\n%s", out.String())
	}
	if strings.Contains(errOut.String(), "falling back") {
		t.Errorf("forced sampling announced a fallback it never took:\n%s", errOut.String())
	}
}

// TestPmapReorderFlag runs x3, the one bundled circuit whose global BDDs
// reach bdd.DefaultReorderThreshold live nodes, so -reorder really sifts:
// the run must record a reorder and map exactly as the run without it.
func TestPmapReorderFlag(t *testing.T) {
	mapped := func(args ...string) string {
		t.Helper()
		var out, errOut bytes.Buffer
		if err := Pmap(append([]string{"-circuit", "x3", "-method", "I"}, args...), &out, &errOut); err != nil {
			t.Fatalf("pmap %v: %v\n%s", args, err, errOut.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "mapped:") {
				return line
			}
		}
		t.Fatalf("pmap %v: missing mapped report:\n%s", args, out.String())
		return ""
	}
	statsPath := filepath.Join(t.TempDir(), "stats.json")
	got := mapped("-reorder", "-stats", "-stats-out", statsPath)
	if want := mapped(); got != want {
		t.Errorf("-reorder changed the mapping:\n got %s\nwant %s", got, want)
	}
	raw, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var sn obs.Snapshot
	if err := json.Unmarshal(raw, &sn); err != nil {
		t.Fatal(err)
	}
	if runs := sn.Counters["bdd.reorder_runs"]; runs < 1 {
		t.Errorf("bdd.reorder_runs = %d, want at least one sifting pass", runs)
	}
}
