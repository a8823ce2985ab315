package ddg

import (
	"testing"

	"discovery/internal/mir"
)

// viewTestGraph: 0 -> 1 -> 2 -> 3, 1 -> 4 (same shape as hashTestGraph).
func viewTestGraph() *Graph {
	fb := NewFrozenBuilder(5, 4)
	for i, preds := range [][]NodeID{nil, {0}, {1}, {2}, {1}} {
		fb.AddNode(mir.OpFAdd, mir.Pos{File: "v.c", Line: i + 1}, 0, nil, preds...)
	}
	g, err := fb.Finish()
	if err != nil {
		panic(err)
	}
	return g
}

func TestSubViewMembershipAndArcs(t *testing.T) {
	g := viewTestGraph()
	sv := g.Overlay(NewSet(0, 1, 2))

	if sv.Len() != 3 {
		t.Errorf("Len = %d, want 3", sv.Len())
	}
	if sv.Base() != g {
		t.Error("Base must be the overlaid graph")
	}
	for r, u := range []NodeID{0, 1, 2} {
		if !sv.Contains(u) {
			t.Errorf("Contains(%d) = false", u)
		}
		if got := sv.Rank(u); got != r {
			t.Errorf("Rank(%d) = %d, want %d", u, got, r)
		}
	}
	for _, u := range []NodeID{3, 4} {
		if sv.Contains(u) {
			t.Errorf("Contains(%d) = true", u)
		}
		if got := sv.Rank(u); got != -1 {
			t.Errorf("Rank(%d) = %d, want -1", u, got)
		}
	}

	// Member arcs: 0->1, 1->2. The arcs 2->3 and 1->4 are filtered out.
	succs := func(u NodeID) []NodeID {
		var out []NodeID
		sv.EachSucc(u, func(v NodeID) bool { out = append(out, v); return true })
		return out
	}
	if got := succs(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("member successors of 1 = %v, want [2]", got)
	}
	if got := succs(2); len(got) != 0 {
		t.Errorf("member successors of 2 = %v, want none", got)
	}
	// EachSucc stops when fn returns false.
	calls := 0
	g.Overlay(NewSet(1, 2, 4)).EachSucc(1, func(NodeID) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("EachSucc called fn %d times after a false return, want 1", calls)
	}
}

// TestSubViewAnalysesRestrict pins the analyses the overlay backs: the
// weak-connectivity family runs its union-find over member arcs only.
func TestSubViewAnalysesRestrict(t *testing.T) {
	g := viewTestGraph()
	sv := g.Overlay(NewSet(0, 1, 2, 4))

	// {0,1,2,4} is connected through 1; {0,2} alone is not (the
	// connecting node 1 is not a member).
	if comps := sv.components(); len(comps) != 1 || !comps[0].Equal(sv.Nodes()) {
		t.Errorf("components = %v, want the one member set", comps)
	}
	if !sv.joins(NewSet(0, 4)) {
		t.Error("0 and 4 join through the member 1")
	}
	if g.WeaklyConnected(NewSet(0, 2)) {
		t.Error("{0,2} is not connected without 1")
	}
	if comps := g.WeaklyConnectedComponents(NewSet(0, 2, 3)); len(comps) != 2 {
		t.Errorf("WCC({0,2,3}) = %v, want {0} and {2,3}", comps)
	}
	// WeaklyConnectedWithInputs lets the shared predecessor 1 join {2,4}.
	if !g.WeaklyConnectedWithInputs(NewSet(2, 4)) {
		t.Error("{2,4} share the predecessor 1")
	}
	if g.WeaklyConnectedWithInputs(NewSet(0, 3)) {
		t.Error("{0,3} share no predecessor")
	}
}
