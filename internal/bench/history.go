package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// HistorySchemaVersion identifies the BENCH_history.jsonl entry layout;
// bump it on any incompatible change so trend tooling can skip entries it
// does not understand.
const HistorySchemaVersion = 1

// TrendMetrics are the manifest metrics the trend ledger carries forward:
// the wide-BDD peak-live-node watermarks without and with sifting, each
// copied from the manifest when present.
var TrendMetrics = []string{
	"bdd.wide_peak_live_nodes",
	"bdd.wide_peak_live_nodes_reorder",
}

// HistoryEntry is one appended line of the BENCH_history.jsonl ledger: a
// flattened view of one manifest, keeping the per-phase minimum wall times
// and the trend metrics so bench trajectory queries never need the full
// manifests.
type HistoryEntry struct {
	Schema int    `json:"schema"`
	RunID  string `json:"run_id,omitempty"`
	Date   string `json:"date,omitempty"`
	GitRev string `json:"git_rev,omitempty"`
	Note   string `json:"note,omitempty"`
	WallNs int64  `json:"wall_ns"`
	// Phases maps phase name to its min-of-N wall time in nanoseconds.
	Phases  map[string]int64   `json:"phases,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// HistoryFromManifest flattens a manifest into a ledger entry.
func HistoryFromManifest(m *Manifest) HistoryEntry {
	e := HistoryEntry{
		Schema: HistorySchemaVersion,
		RunID:  m.RunID,
		Date:   m.Date,
		GitRev: m.GitRev,
		Note:   m.Note,
		WallNs: m.WallNs,
	}
	if len(m.Phases) > 0 {
		e.Phases = make(map[string]int64, len(m.Phases))
		for name, st := range m.Phases {
			e.Phases[name] = st.WallNs
		}
	}
	for _, k := range TrendMetrics {
		if v, ok := m.Metrics[k]; ok {
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[k] = v
		}
	}
	return e
}

// AppendHistoryFile appends one entry to the JSONL ledger at path, creating
// the file if missing. Appends are whole-line writes, so a ledger shared by
// sequential CI runs never interleaves partial entries.
func AppendHistoryFile(path string, e HistoryEntry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("bench: history entry: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("bench: history: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("bench: history: %w", err)
	}
	return f.Close()
}

// ReadHistoryFile reads the ledger at path, oldest first. Blank lines are
// skipped; entries from a newer schema are kept (their known fields still
// parse), so old tooling degrades gracefully instead of failing the read.
func ReadHistoryFile(path string) ([]HistoryEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []HistoryEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var e HistoryEntry
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("bench: history %s:%d: %w", path, line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: history %s: %w", path, err)
	}
	return out, nil
}

// FormatTrend renders the newest `last` ledger entries (oldest first) as a
// GitHub-flavored markdown table with per-run deltas against the previous
// entry — the CI step summary's bench-trajectory view. Zero or negative
// last means all entries.
func FormatTrend(entries []HistoryEntry, last int) string {
	if len(entries) == 0 {
		return "no bench history yet\n"
	}
	if last > 0 && len(entries) > last {
		entries = entries[len(entries)-last:]
	}
	var b strings.Builder
	b.WriteString("| date | rev | wall (ms) | Δ wall | peak live nodes | peak live (reorder) |\n")
	b.WriteString("|------|-----|----------:|-------:|----------------:|--------------------:|\n")
	for i, e := range entries {
		delta := "—"
		if i > 0 && entries[i-1].WallNs > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*float64(e.WallNs-entries[i-1].WallNs)/float64(entries[i-1].WallNs))
		}
		rev := e.GitRev
		if len(rev) > 9 {
			rev = rev[:9]
		}
		if rev == "" {
			rev = "—"
		}
		fmt.Fprintf(&b, "| %s | %s | %.1f | %s | %s | %s |\n",
			orDash(e.Date), rev, float64(e.WallNs)/1e6, delta,
			metricCell(e, "bdd.wide_peak_live_nodes", "%.0f"),
			metricCell(e, "bdd.wide_peak_live_nodes_reorder", "%.0f"))
	}
	// Name the slowest phases of the newest entry so a wall-time jump in
	// the table is immediately attributable without opening the manifest.
	newest := entries[len(entries)-1]
	if len(newest.Phases) > 0 {
		type pw struct {
			name string
			ns   int64
		}
		phases := make([]pw, 0, len(newest.Phases))
		for name, ns := range newest.Phases {
			phases = append(phases, pw{name, ns})
		}
		sort.Slice(phases, func(i, j int) bool {
			if phases[i].ns != phases[j].ns {
				return phases[i].ns > phases[j].ns
			}
			return phases[i].name < phases[j].name
		})
		if len(phases) > 5 {
			phases = phases[:5]
		}
		b.WriteString("\nslowest phases (latest run): ")
		for i, p := range phases {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %.1fms", p.name, float64(p.ns)/1e6)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func metricCell(e HistoryEntry, key, format string) string {
	v, ok := e.Metrics[key]
	if !ok {
		return "—"
	}
	return fmt.Sprintf(format, v)
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}
