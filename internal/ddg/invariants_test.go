package ddg

import (
	"errors"
	"strings"
	"testing"

	"discovery/internal/analysis"
	"discovery/internal/mir"
)

// chainGraph builds 0 -> 1 -> 2 -> 3 with an extra arc 0 -> 3.
func chainGraph() *Graph {
	return arcGraph(repeatOp(mir.OpAdd, 4),
		[2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{2, 3}, [2]NodeID{0, 3})
}

func TestCheckInvariantsCleanGraph(t *testing.T) {
	if err := chainGraph().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCheckInvariantsFrozenBuilderGraph(t *testing.T) {
	fb := NewFrozenBuilder(3, 4)
	a := fb.AddNode(mir.OpAdd, mir.Pos{}, 0, nil)
	b := fb.AddNode(mir.OpMul, mir.Pos{}, 0, nil, a)
	fb.AddNode(mir.OpFAdd, mir.Pos{}, 1, nil, a, b, NoNode, a) // NoNode and dup dropped
	g, err := fb.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if g.NumArcs() != 3 {
		t.Errorf("arcs = %d, want 3", g.NumArcs())
	}
}

// TestFrozenBuilderRejectsBackwardArc: every arc that does not flow from a
// lower to a higher id — a pred that does not exist yet, a self arc, or
// the arc that would close a cycle on a 100-node chain — fails Finish with
// a typed InvariantViolation, so no cyclic graph can be built.
func TestFrozenBuilderRejectsBackwardArc(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		bad  func(v NodeID) []NodeID // extra preds of node v
	}{
		{"forward-reference", 2, func(v NodeID) []NodeID { // pred 5 does not exist yet
			if v == 0 {
				return []NodeID{5}
			}
			return nil
		}},
		{"self-arc", 2, func(v NodeID) []NodeID {
			if v == 1 {
				return []NodeID{1}
			}
			return nil
		}},
		{"cycle", 100, func(v NodeID) []NodeID { // 99 -> 0 closes the chain
			if v == 0 {
				return []NodeID{99}
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fb := NewFrozenBuilder(tc.n, tc.n)
			for v := NodeID(0); int(v) < tc.n; v++ {
				preds := tc.bad(v)
				if v > 0 {
					preds = append(preds, v-1)
				}
				fb.AddNode(mir.OpAdd, mir.Pos{}, 0, nil, preds...)
			}
			g, err := fb.Finish()
			if err == nil {
				t.Fatal("Finish accepted an arc that does not flow forward")
			}
			if g != nil {
				t.Error("Finish returned a graph alongside the error")
			}
			if !errors.Is(err, analysis.ErrInvariantViolation) {
				t.Errorf("error kind = %v, want invariant violation", err)
			}
			if !strings.Contains(err.Error(), "does not precede") {
				t.Errorf("error lacks context: %v", err)
			}
		})
	}
}

func TestCheckInvariantsDetectsAsymmetry(t *testing.T) {
	g := chainGraph()
	// Corrupt the pred array: retarget an arc on the pred side only.
	g.predArr[0] = 2 // node 1's pred becomes 2 (also backwards: 2 > 1)
	if err := g.CheckInvariants(); err == nil {
		t.Error("corrupted CSR passed invariant checking")
	}
}

func TestCheckInvariantsDetectsDuplicateArc(t *testing.T) {
	g := chainGraph()
	// Make node 3's preds [2, 2] instead of [2, 0] — a dedup violation
	// that keeps the arc count consistent on the pred side.
	for i := g.predOff[3]; i < g.predOff[4]; i++ {
		g.predArr[i] = 2
	}
	if err := g.CheckInvariants(); err == nil {
		t.Error("duplicate arc passed invariant checking")
	}
}
