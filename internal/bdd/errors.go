package bdd

import (
	"errors"
	"fmt"
)

// ErrNodeLimit is the sentinel matched by errors.Is when an operation would
// grow the manager past its configured node limit. The concrete error in
// the chain is a *NodeLimitError carrying the limit and live-node count.
var ErrNodeLimit = errors.New("bdd: node limit exceeded")

// NodeLimitError reports an operation aborted because the manager reached
// its live-node limit. It matches ErrNodeLimit under errors.Is.
type NodeLimitError struct {
	// Live is the number of live internal nodes when the limit tripped.
	Live int
	// Limit is the configured ceiling.
	Limit int
}

func (e *NodeLimitError) Error() string {
	return fmt.Sprintf("bdd: node limit exceeded (%d live nodes, limit %d)", e.Live, e.Limit)
}

// Is makes errors.Is(err, ErrNodeLimit) succeed on wrapped NodeLimitErrors.
func (e *NodeLimitError) Is(target error) bool { return target == ErrNodeLimit }

// IsNodeLimit reports whether err is (or wraps) a node-limit failure.
func IsNodeLimit(err error) bool { return errors.Is(err, ErrNodeLimit) }

// VarRangeError reports a variable index outside [0, NumVars).
type VarRangeError struct {
	Var     int
	NumVars int
}

func (e *VarRangeError) Error() string {
	return fmt.Sprintf("bdd: variable %d out of range [0,%d)", e.Var, e.NumVars)
}

// CoverWidthError reports a FromCover call whose cover width disagrees with
// the number of input functions supplied.
type CoverWidthError struct {
	CoverVars int
	Inputs    int
}

func (e *CoverWidthError) Error() string {
	return fmt.Sprintf("bdd: cover width %d != input count %d", e.CoverVars, e.Inputs)
}

// ProbLenError reports a probability vector whose length disagrees with the
// manager's variable count.
type ProbLenError struct {
	Got  int
	Want int
}

func (e *ProbLenError) Error() string {
	return fmt.Sprintf("bdd: got %d probabilities for %d variables", e.Got, e.Want)
}
