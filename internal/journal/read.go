package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Run is a journal read back into memory, events bucketed by type in file
// order. Unknown event types are counted but otherwise skipped, so readers
// stay compatible with journals that carry additional event kinds.
type Run struct {
	Path          string
	Header        Header
	Decomp        []DecompNode
	DecompSummary *DecompSummary
	Sites         []MapSite
	Gates         []GatePower
	Report        *Report
	Events        []Generic
	// Counts is the number of events seen per type discriminator
	// (excluding the header), including types this reader doesn't model.
	Counts map[string]int
}

// Site returns the map.site event for a node name, or nil.
func (r *Run) Site(node string) *MapSite {
	for i := range r.Sites {
		if r.Sites[i].Node == node {
			return &r.Sites[i]
		}
	}
	return nil
}

// DecompNodeByName returns the decomp.node event for a node name, or nil.
func (r *Run) DecompNodeByName(node string) *DecompNode {
	for i := range r.Decomp {
		if r.Decomp[i].Node == node {
			return &r.Decomp[i]
		}
	}
	return nil
}

// Gate returns the power.gate attribution row for a signal name, or nil.
func (r *Run) Gate(signal string) *GatePower {
	for i := range r.Gates {
		if r.Gates[i].Signal == signal {
			return &r.Gates[i]
		}
	}
	return nil
}

// ReadRun parses one journal stream. Blank lines are skipped; the first
// other line must be a header with a schema version this reader
// understands.
func ReadRun(r io.Reader) (*Run, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	run := &Run{Counts: make(map[string]int)}
	lineNo, header := 0, false
	for sc.Scan() {
		line := sc.Bytes()
		lineNo++
		if len(line) == 0 {
			continue
		}
		var env envelope
		if err := json.Unmarshal(line, &env); err != nil {
			return nil, fmt.Errorf("journal: line %d: %w", lineNo, err)
		}
		if !header {
			if env.Type != TypeHeader {
				return nil, fmt.Errorf("journal: line %d: expected a %q record, got %q", lineNo, TypeHeader, env.Type)
			}
			if err := json.Unmarshal(line, &run.Header); err != nil {
				return nil, fmt.Errorf("journal: header: %w", err)
			}
			if run.Header.Schema > SchemaVersion {
				return nil, fmt.Errorf("journal: schema version %d is newer than this reader (%d)", run.Header.Schema, SchemaVersion)
			}
			header = true
			continue
		}
		run.Counts[env.Type]++
		var err error
		switch env.Type {
		case TypeDecompNode:
			var e DecompNode
			if err = json.Unmarshal(line, &e); err == nil {
				run.Decomp = append(run.Decomp, e)
			}
		case TypeDecompSummary:
			var e DecompSummary
			if err = json.Unmarshal(line, &e); err == nil {
				run.DecompSummary = &e
			}
		case TypeMapSite:
			var e MapSite
			if err = json.Unmarshal(line, &e); err == nil {
				run.Sites = append(run.Sites, e)
			}
		case TypeGatePower:
			var e GatePower
			if err = json.Unmarshal(line, &e); err == nil {
				run.Gates = append(run.Gates, e)
			}
		case TypeReport:
			var e Report
			if err = json.Unmarshal(line, &e); err == nil {
				run.Report = &e
			}
		case TypeEvent:
			var e Generic
			if err = json.Unmarshal(line, &e); err == nil {
				run.Events = append(run.Events, e)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("journal: line %d (%s): %w", lineNo, env.Type, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if !header {
		return nil, fmt.Errorf("journal: empty stream")
	}
	return run, nil
}

// ReadRunFile is ReadRun over a file.
func ReadRunFile(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	run, err := ReadRun(f)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	run.Path = path
	return run, nil
}
