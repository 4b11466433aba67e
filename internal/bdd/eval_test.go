package bdd

import "fmt"

// This file holds the truth-table oracle of the bdd tests: no production
// code evaluates a BDD under a full assignment.

// Eval evaluates f under a full assignment indexed by variable.
func (m *Manager) Eval(f Ref, assign []bool) (bool, error) {
	if len(assign) != m.numVars {
		return false, &AssignLenError{Got: len(assign), Want: m.numVars}
	}
	for f != False && f != True {
		n := m.nodes[f]
		if assign[n.varID] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True, nil
}

// AssignLenError reports an Eval assignment whose length disagrees with the
// manager's variable count.
type AssignLenError struct {
	Got  int
	Want int
}

func (e *AssignLenError) Error() string {
	return fmt.Sprintf("bdd: got %d assignment values for %d variables", e.Got, e.Want)
}
