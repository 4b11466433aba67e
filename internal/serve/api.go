// Package serve implements synthesis-as-a-service: an HTTP/JSON daemon
// (cmd/pserve) that runs the paper's decomposition+mapping pipeline per
// request, with the production concerns the CLI tools don't need —
// content-addressed result caching, admission control with honest status
// codes, and graceful drain. A "verified" response carries the
// internal/verify proof (verify.CheckResult, under the request's BDD
// budget) of the optimized network, the subject graph and the mapped
// netlist. See DESIGN.md §16 for the architecture and the status-code
// contract.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"powermap/internal/core"
	"powermap/internal/huffman"
	"powermap/internal/mapper"
)

// Request is the POST /synth payload: one circuit (a bundled benchmark
// name or literal BLIF text, not both) plus synthesis options.
type Request struct {
	// Circuit names a bundled benchmark (pmap -list).
	Circuit string `json:"circuit,omitempty"`
	// BLIF is a literal BLIF netlist.
	BLIF    string  `json:"blif,omitempty"`
	Options Options `json:"options"`
}

// Options mirrors the pmap flag surface over JSON. Zero values take the
// CLI defaults (method VI, static style, dag mapper, uniform P(pi=1)=0.5).
type Options struct {
	// Method is the paper method, "I".."VI".
	Method string `json:"method,omitempty"`
	// Style is the design style: static, domino-p, domino-n.
	Style string `json:"style,omitempty"`
	// Mapper selects the match enumerator: tree, dag or cuts.
	Mapper string `json:"mapper,omitempty"`
	// LUT maps k-feasible cuts to generic k-LUTs (2..6, implies cuts).
	LUT int `json:"lut,omitempty"`
	// PIProb is the uniform P(pi=1); 0 means the default 0.5.
	PIProb float64 `json:"pi_prob,omitempty"`
	// BDDLimit caps live BDD nodes for this request; an over-budget
	// network fails with 422. 0 takes the server's default.
	BDDLimit int `json:"bdd_limit,omitempty"`
	// Reorder enables dynamic BDD variable reordering.
	Reorder bool `json:"reorder,omitempty"`
	// TimeoutMS bounds the request's wall time; expiry returns 408.
	// 0 takes the server default; the server's -max-timeout clamps it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Verify additionally proves the optimized network, the subject graph
	// and the mapped netlist equivalent to the source (verify.CheckResult).
	Verify bool `json:"verify,omitempty"`
	// Netlist returns the mapped netlist as BLIF in the response.
	Netlist bool `json:"netlist,omitempty"`
}

// Report is the paper's three reported metrics plus gate count.
type Report struct {
	Gates   int     `json:"gates"`
	Area    float64 `json:"area"`
	DelayNS float64 `json:"delay_ns"`
	PowerUW float64 `json:"power_uw"`
}

// Response is the 200 body of POST /synth.
type Response struct {
	Circuit       string  `json:"circuit"`
	Method        string  `json:"method"`
	Report        Report  `json:"report"`
	SubjectNodes  int     `json:"subject_nodes"`
	TotalActivity float64 `json:"total_activity"`
	// Verified is present only when the request asked for verification.
	Verified *bool `json:"verified,omitempty"`
	// NetlistBLIF is present only when the request asked for the netlist.
	NetlistBLIF string `json:"netlist_blif,omitempty"`
	// Cached reports whether this response was served from the result
	// cache rather than synthesized.
	Cached bool `json:"cached"`
	// ElapsedMS is this request's service time (near zero on a hit).
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ErrorResponse is the body of every non-200 status.
type ErrorResponse struct {
	Error string `json:"error"`
}

// resolved is an Options value parsed into pipeline types. It holds only
// plain values, because cacheKey hashes its printed form.
type resolved struct {
	method   core.Method
	style    huffman.Style
	backend  mapper.Backend
	lut      int
	piProb   float64
	bddLimit int
	reorder  bool
	timeout  time.Duration
	verify   bool
	netlist  bool
}

// resolve validates o and fills defaults through the parsers the CLI
// flags use, so the accepted spellings and ranges match pmap's.
func (o Options) resolve() (resolved, error) {
	r := resolved{
		lut:      o.LUT,
		piProb:   o.PIProb,
		bddLimit: o.BDDLimit,
		reorder:  o.Reorder,
		timeout:  time.Duration(o.TimeoutMS) * time.Millisecond,
		verify:   o.Verify,
		netlist:  o.Netlist,
	}
	var err error
	if r.method, err = core.ParseMethod(o.Method); err != nil {
		return r, err
	}
	if r.style, err = huffman.ParseStyle(o.Style); err != nil {
		return r, err
	}
	if r.backend, err = mapper.ParseBackend(o.Mapper, o.LUT); err != nil {
		return r, err
	}
	if o.PIProb == 0 {
		r.piProb = 0.5
	} else if o.PIProb < 0 || o.PIProb > 1 {
		return r, fmt.Errorf("pi_prob %v outside [0,1]", o.PIProb)
	}
	if o.BDDLimit < 0 {
		return r, fmt.Errorf("bdd_limit must be >= 0")
	}
	if o.TimeoutMS < 0 {
		return r, fmt.Errorf("timeout_ms must be >= 0")
	}
	return r, nil
}

// cacheKey content-addresses one computation: the circuit bytes (or the
// bundled-benchmark name, versioned implicitly by the binary) hashed with
// the resolved options, so two requests for the same computation hash
// identically however sparsely they were spelled. The timeout is left out:
// a budget changes whether a result arrives, never which result.
func cacheKey(circuit, blifText string, r resolved) string {
	h := sha256.New()
	fmt.Fprintf(h, "circuit=%s\n", circuit)
	fmt.Fprintf(h, "blif=%d:", len(blifText))
	h.Write([]byte(blifText))
	r.timeout = 0
	fmt.Fprintf(h, "\nopts=%+v", r)
	return hex.EncodeToString(h.Sum(nil))
}
