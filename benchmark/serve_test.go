package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"powermap/internal/obs"
)

// hotKeys returns n hot-key bodies for a seed.
func hotKeys(t *testing.T, seed int64, n int) [][]byte {
	t.Helper()
	var keys [][]byte
	for k := 0; k < n; k++ {
		body, err := poolBody(seed, "key", k, k)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, body)
	}
	return keys
}

// streamBytes serializes everything both serve workloads send for a seed:
// every window's request bodies, in order.
func streamBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, unique := range []bool{true, false} {
		windows, err := serveWindows(seed, unique, hotKeys(t, seed, 16), 3, 24)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range windows {
			for _, r := range w {
				fmt.Fprintln(&b, r.key)
				b.Write(r.body)
			}
		}
	}
	return b.Bytes()
}

func TestInputsAreSeeded(t *testing.T) {
	a, again, other := streamBytes(t, 7), streamBytes(t, 7), streamBytes(t, 8)
	if !bytes.Equal(a, again) {
		t.Fatal("the same seed produced different request streams")
	}
	if bytes.Equal(a, other) {
		t.Fatal("different seeds produced identical inputs")
	}
}

// TestWindowsAskForTheSameWork checks that every serve-unique window sends
// the same circuits, each under a name no other request uses, and that
// every serve-repeat window sends the same hot keys.
func TestWindowsAskForTheSameWork(t *testing.T) {
	unique, err := serveWindows(5, true, nil, 4, 30)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var first string
	for w, reqs := range unique {
		var circuits []string
		for _, r := range reqs {
			if seen[string(r.body)] {
				t.Fatalf("window %d repeats a request body, which the cache would answer", w)
			}
			seen[string(r.body)] = true
			var req synthRequest
			if err := json.Unmarshal(r.body, &req); err != nil {
				t.Fatal(err)
			}
			_, rest, _ := strings.Cut(req.BLIF, "\n") // drop the .model line
			circuits = append(circuits, req.Options.Method+rest)
		}
		sort.Strings(circuits)
		if joined := strings.Join(circuits, "|"); w == 0 {
			first = joined
		} else if joined != first {
			t.Fatalf("window %d asks for other circuits than window 0", w)
		}
	}
	repeat, err := serveWindows(5, false, hotKeys(t, 5, 16), 4, 30)
	if err != nil {
		t.Fatal(err)
	}
	for w := range repeat {
		for j, r := range repeat[w] {
			if r.key != repeat[0][j].key {
				t.Fatalf("serve-repeat window %d request %d is key %d, window 0 sent %d", w, j, r.key, repeat[0][j].key)
			}
		}
	}
}

func TestPoolCoversEveryMethodPerSix(t *testing.T) {
	seen := map[string]int{}
	for k := 6; k < 12; k++ {
		_, m := poolCircuit("c", k)
		seen[m.String()]++
	}
	if len(seen) != 6 {
		t.Fatalf("requests 6..11 used methods %v, want each of I..VI once", seen)
	}
}

// TestParsePhaseSeconds parses the exposition obs writes, so a change to
// the exporter's format shows up here rather than as zeros in a run.
func TestParsePhaseSeconds(t *testing.T) {
	sc := obs.New(obs.Config{})
	for i := 0; i < 3; i++ {
		sc.Start("mapper.curves").End()
	}
	sc.Start("map").End()
	sc.Counter("mapper.sites_selected").Add(42)
	var text strings.Builder
	if err := obs.WritePrometheus(&text, sc); err != nil {
		t.Fatal(err)
	}
	m, err := parseExposition(text.String())
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, sp := range sc.Spans() {
		if sp.Name == "mapper.curves" {
			want += float64(sp.DurationNs) / 1e9
		}
	}
	if got := phaseSeconds(m, "mapper.curves"); want == 0 || math.Abs(got-want) > 1e-12 {
		t.Errorf("phase seconds of mapper.curves = %v, want %v", got, want)
	}
	if got := m["powermap_mapper_sites_selected"]; got != 42 {
		t.Errorf("mapper.sites_selected = %v, want 42", got)
	}
	if got := phaseSeconds(m, "decompose"); got != 0 {
		t.Errorf("absent phase reads %v, want 0", got)
	}
	if _, err := parseExposition("powermap_x{a=\"b\"} notanumber\n"); err == nil {
		t.Error("a malformed value parsed without error")
	}
}

func TestPoolReuseFrac(t *testing.T) {
	out := "pserve: stopped; pool reuses 27, allocs 3, recycles 28, discards 0\n"
	if got := poolReuseFrac(out); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("poolReuseFrac = %v, want 0.9", got)
	}
	if got := poolReuseFrac("no shutdown line"); got != 0 {
		t.Errorf("poolReuseFrac without the line = %v, want 0", got)
	}
}
