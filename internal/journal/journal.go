// Package journal records the decision provenance of one synthesis run as
// a stream of typed JSONL events: which tree shapes the decomposition chose
// (and which Huffman merges priced them), which library matches the mapper
// considered and picked at every site, and a per-gate power attribution
// whose rows sum to the report total. The journal is the durable,
// queryable counterpart of the in-memory obs metrics — cmd/pexplain reads
// it back to answer "where do the microwatts go", "why this gate", and
// "what changed between these two runs".
//
// A *Journal is threaded through the flow exactly like *obs.Scope
// (DESIGN.md §7): core forwards it to decomp and mapper via their Options,
// every emit method is safe on a nil receiver, and a disabled flow pays
// only a nil check. Emission sites that do extra work to assemble an event
// (walking tree shapes, copying curves) guard on Enabled() first.
//
// File format: one run per file. The first line is a schema-versioned
// Header; every following line is one event object tagged with a "type"
// discriminator and a monotonically increasing "seq". Unknown event types
// are skipped on read, so adding event kinds is a compatible change;
// changing or removing the meaning of an existing field requires bumping
// SchemaVersion (see DESIGN.md §12).
package journal

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"powermap/internal/obs"
)

// SchemaVersion is the journal file format version, written into every
// header. Readers reject files with a larger major version.
const SchemaVersion = 1

// Event type discriminators.
const (
	TypeHeader        = "header"
	TypeDecompNode    = "decomp.node"
	TypeDecompSummary = "decomp.summary"
	TypeMapSite       = "map.site"
	TypeGatePower     = "power.gate"
	TypeReport        = "report"
	TypeEvent         = "event"
)

// Host identifies the machine and toolchain that produced a run.
type Host struct {
	Name      string `json:"name,omitempty"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
}

// Header is the first line of every journal: the schema version, the run
// identity, and the workload being synthesized. Zero Host/Time fields are
// filled in by New.
type Header struct {
	Schema    int    `json:"schema"`
	RunID     string `json:"run_id"`
	Time      string `json:"time,omitempty"`
	Host      Host   `json:"host"`
	Circuit   string `json:"circuit,omitempty"`
	Method    string `json:"method,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	Objective string `json:"objective,omitempty"`
	Style     string `json:"style,omitempty"`
	Stage     string `json:"stage,omitempty"`
	Workers   int    `json:"workers,omitempty"`
}

// TreeLeaf is one leaf of a decomposition tree: the power-cost input the
// Huffman construction priced (signal probability and the style's
// switching activity for that probability).
type TreeLeaf struct {
	Signal   string  `json:"signal"`
	Prob     float64 `json:"prob"`
	Activity float64 `json:"activity"`
}

// Merge is one internal node of a decomposition tree in construction
// order. A and B name either a leaf signal or "#k", the k-th earlier merge
// of the same tree. Prob and Cost are the merged signal's probability and
// switching activity — the quantity the tree construction minimizes the
// sum of.
type Merge struct {
	Gate string  `json:"gate"` // "and" or "or"
	A    string  `json:"a"`
	B    string  `json:"b"`
	Prob float64 `json:"prob"`
	Cost float64 `json:"cost"`
}

// DecompNode records how one optimized-network node was decomposed: the
// construction that won (balanced / huffman / modified-huffman), the tree
// shape summary, and the per-merge cost trail. The node keeps its name
// through materialization, so mapped gate roots refer back to it.
type DecompNode struct {
	Node      string `json:"node"`
	Tree      string `json:"tree"`
	Cubes     int    `json:"cubes"`
	Leaves    int    `json:"leaves"`
	Height    int    `json:"height"`
	MinHeight int    `json:"min_height"`
	Rebuilt   bool   `json:"rebuilt,omitempty"` // bounded pass replaced the tree
	Stuck     bool   `json:"stuck,omitempty"`   // bounded pass gave up on it
	// Exact marks runs whose construction was priced with global-BDD
	// activities; the Inputs/Merges costs below are then the closed-form
	// independence view of the same tree shapes.
	Exact  bool       `json:"exact,omitempty"`
	Inputs []TreeLeaf `json:"inputs,omitempty"`
	Merges []Merge    `json:"merges,omitempty"`
}

// DecompSummary is the decomposition phase rollup.
type DecompSummary struct {
	Nodes            int     `json:"nodes"`
	TotalActivity    float64 `json:"total_activity"`
	SubjectNodes     int     `json:"subject_nodes"`
	Depth            float64 `json:"depth"`
	Redecompositions int     `json:"redecompositions,omitempty"`
}

// Candidate is one point of a match site's pruned power-delay (or
// area-delay) curve: a non-inferior (arrival, cost) solution and the cell
// that realizes it.
type Candidate struct {
	Cell    string  `json:"cell"`
	Arrival float64 `json:"arrival_ns"`
	Cost    float64 `json:"cost"`
	Chosen  bool    `json:"chosen,omitempty"`
}

// MapSite records one mapper decision: the subject node covered, how many
// library matches were enumerated, the surviving curve, and which point
// was selected and why.
type MapSite struct {
	Node        string  `json:"node"`
	Cell        string  `json:"cell"`
	Matches     int     `json:"matches"`
	CurvePoints int     `json:"curve_points"`
	Required    float64 `json:"required_ns"`
	Arrival     float64 `json:"arrival_ns"`
	Cost        float64 `json:"cost"`
	Load        float64 `json:"load"`
	Visits      int     `json:"visits,omitempty"`
	Fallback    bool    `json:"fallback,omitempty"`
	Why         string  `json:"why"`
	// Cut-backend provenance: the subject signals the matched cut's cell
	// pins bind (in pin order) and the NPN class key of the cut function,
	// standing in for the structural backend's pattern trail. Absent on
	// structural-backend events — added fields keep the schema version.
	CutLeaves  []string    `json:"cut_leaves,omitempty"`
	NPNClass   string      `json:"npn_class,omitempty"`
	Candidates []Candidate `json:"candidates,omitempty"`
}

// GatePower is one row of the per-gate power attribution: a switched
// signal, its actual load, exact activity, and Equation 1 power. Rows with
// a Cell are mapped gate outputs; rows without are source signals (primary
// inputs) charging the pins they drive. The rows of one run sum to the
// report's PowerUW (see Report.AttributedUW).
type GatePower struct {
	Signal   string  `json:"signal"`
	Cell     string  `json:"cell,omitempty"`
	Load     float64 `json:"load"`
	Activity float64 `json:"activity"`
	PowerUW  float64 `json:"power_uw"`
}

// Report is the run rollup: the paper's three reported quantities plus the
// sum of the GatePower rows, which equals PowerUW by construction (the
// attribution walks the same signals in the same order as the report).
type Report struct {
	Gates        int     `json:"gates"`
	Area         float64 `json:"area"`
	DelayNs      float64 `json:"delay_ns"`
	PowerUW      float64 `json:"power_uw"`
	AttributedUW float64 `json:"attributed_uw"`
}

// Generic is a free-form event (e.g. the Monte-Carlo seed stamp of
// powerest).
type Generic struct {
	Name  string         `json:"name"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// envelope tags every event line with its type and sequence number.
type envelope struct {
	Type string `json:"type"`
	Seq  int    `json:"seq"`
}

// Journal is a mutex-guarded JSONL event writer. A nil *Journal disables
// journaling: every method is a no-op, so pipeline code emits
// unconditionally. Methods are safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	w      io.Writer
	buf    *bufio.Writer // non-nil when Journal owns buffering
	closer io.Closer     // non-nil when Journal owns the file
	runID  string
	seq    int
	err    error
	events *obs.Counter
	bytes  *obs.Counter
	byType map[string]*obs.Counter
}

// NewRunID returns a fresh 12-hex-digit random run identifier.
func NewRunID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively unreachable; fall back to a
		// time-derived ID rather than panicking in a reporting layer.
		return fmt.Sprintf("t%011x", time.Now().UnixNano()&0xfffffffffff)
	}
	return hex.EncodeToString(b[:])
}

// New returns a journal writing to w, after stamping and emitting the
// header: Schema is set to SchemaVersion, a missing RunID gets NewRunID(),
// and zero Time/Host fields are filled from the environment.
func New(w io.Writer, h Header) *Journal {
	h.Schema = SchemaVersion
	if h.RunID == "" {
		h.RunID = NewRunID()
	}
	if h.Time == "" {
		h.Time = time.Now().UTC().Format(time.RFC3339)
	}
	if h.Host == (Host{}) {
		name, _ := os.Hostname()
		h.Host = Host{
			Name:      name,
			OS:        runtime.GOOS,
			Arch:      runtime.GOARCH,
			CPUs:      runtime.NumCPU(),
			GoVersion: runtime.Version(),
		}
	}
	j := &Journal{w: w, runID: h.RunID}
	j.emit(TypeHeader, h)
	return j
}

// Create opens (truncating) a journal file at path, buffered; Close
// flushes and closes it.
func Create(path string, h Header) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	buf := bufio.NewWriter(f)
	j := New(buf, h)
	j.buf = buf
	j.closer = f
	return j, nil
}

// SetObs bridges the journal's aggregates into an obs metrics registry:
// every emitted event bumps journal.events (refined by a type label) and
// journal.bytes, so Prometheus/Perfetto views and the journal agree on
// event counts. Nil-safe on both sides.
func (j *Journal) SetObs(sc *obs.Scope) {
	if j == nil || sc == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = sc.Counter("journal.events")
	j.bytes = sc.Counter("journal.bytes")
	j.byType = make(map[string]*obs.Counter)
}

// Enabled reports whether events are being recorded. Emission sites doing
// nontrivial event assembly guard on it.
func (j *Journal) Enabled() bool { return j != nil }

// RunID returns the run identifier stamped in the header ("" on nil).
func (j *Journal) RunID() string {
	if j == nil {
		return ""
	}
	return j.runID
}

// emit writes one event line. All exported emit methods funnel here.
func (j *Journal) emit(typ string, payload any) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	env, err := json.Marshal(envelope{Type: typ, Seq: j.seq})
	if err != nil {
		j.err = fmt.Errorf("journal: %w", err)
		return
	}
	body, err := json.Marshal(payload)
	if err != nil {
		j.err = fmt.Errorf("journal: %s: %w", typ, err)
		return
	}
	// Splice the envelope and the payload object into one line:
	// {"type":...,"seq":...,<payload fields>}.
	line := env[:len(env)-1]
	if len(body) > 2 { // non-empty object
		line = append(line, ',')
		line = append(line, body[1:len(body)-1]...)
	}
	line = append(line, '}', '\n')
	if _, err := j.w.Write(line); err != nil {
		j.err = fmt.Errorf("journal: %w", err)
		return
	}
	j.seq++
	if j.events != nil {
		c := j.byType[typ]
		if c == nil {
			c = j.events.With("type", typ)
			j.byType[typ] = c
		}
		c.Inc()
		j.bytes.Add(int64(len(line)))
	}
}

// DecompNode records one node's decomposition decision.
func (j *Journal) DecompNode(e DecompNode) { j.emit(TypeDecompNode, e) }

// DecompSummary records the decomposition phase rollup.
func (j *Journal) DecompSummary(e DecompSummary) { j.emit(TypeDecompSummary, e) }

// MapSite records one mapper match-site decision.
func (j *Journal) MapSite(e MapSite) { j.emit(TypeMapSite, e) }

// GatePower records one per-gate power attribution row.
func (j *Journal) GatePower(e GatePower) { j.emit(TypeGatePower, e) }

// Report records the run rollup.
func (j *Journal) Report(e Report) { j.emit(TypeReport, e) }

// Event records a free-form named event.
func (j *Journal) Event(name string, attrs map[string]any) {
	j.emit(TypeEvent, Generic{Name: name, Attrs: attrs})
}

// Close flushes buffered output and closes the underlying file when the
// journal owns one (Create); it returns the first error seen over the
// journal's lifetime.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.buf != nil {
		if err := j.buf.Flush(); err != nil && j.err == nil {
			j.err = fmt.Errorf("journal: %w", err)
		}
		j.buf = nil
	}
	if j.closer != nil {
		if err := j.closer.Close(); err != nil && j.err == nil {
			j.err = fmt.Errorf("journal: %w", err)
		}
		j.closer = nil
	}
	return j.err
}
