package ddg

// Unit tests for the derived loop-iteration indexes: ordinal lookups,
// innermost-frame resolution under recursion, nodes outside the loop,
// multi-threaded invocations, restriction through InducedSubgraph,
// concurrent first use, and the invariant checker's drift detection — an
// index that disagrees with the scope chains must be caught, because it
// would silently change compacted views.

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"discovery/internal/mir"
)

// buildLoopGraph returns a 5-node graph: node 0 outside any loop, nodes
// 1-2 in iteration 0 and nodes 3-4 in iteration 1 of loop 1 (invocation 0).
func buildLoopGraph(t *testing.T) *Graph {
	t.Helper()
	var root *Scope
	s0 := root.Enter(1, 0)
	s1 := s0.NextIter()
	fb := NewFrozenBuilder(5, 5)
	pos := mir.Pos{File: "loop.c", Line: 1}
	fb.AddNode(mir.OpFAdd, pos, 0, nil)
	fb.AddNode(mir.OpFAdd, pos, 0, s0, 0)
	fb.AddNode(mir.OpFMul, pos, 0, s0, 1)
	fb.AddNode(mir.OpFAdd, pos, 0, s1, 2)
	fb.AddNode(mir.OpFMul, pos, 0, s1, 3)
	g, err := fb.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return g
}

// buildScopedGraph builds a chain of nodes, one per scope, all on the
// given threads (threads[i] executes node i; nil means thread 0).
func buildScopedGraph(t *testing.T, scopes []*Scope, threads []int32) *Graph {
	t.Helper()
	fb := NewFrozenBuilder(len(scopes), len(scopes))
	for i, s := range scopes {
		var th int32
		if threads != nil {
			th = threads[i]
		}
		if i == 0 {
			fb.AddNode(mir.OpAdd, mir.Pos{}, th, s)
		} else {
			fb.AddNode(mir.OpAdd, mir.Pos{}, th, s, NodeID(i-1))
		}
	}
	g, err := fb.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return g
}

// keysOf renders the key each node is grouped under ("-" outside the loop).
func keysOf(g *Graph, loop mir.LoopID) string {
	ix := g.LoopIterIndex(loop)
	s := ""
	for u := 0; u < g.NumNodes(); u++ {
		if o, ok := ix.OrdinalOf(NodeID(u)); ok {
			k := ix.Keys[o]
			s += fmt.Sprintf("%d#%d[%d] ", o, k.Invocation, k.Iter)
		} else {
			s += "- "
		}
	}
	return s
}

func TestOrdinalOf(t *testing.T) {
	g := buildLoopGraph(t)
	ix := g.LoopIterIndex(1)
	if ix.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d, want 2", ix.NumGroups())
	}
	if _, ok := ix.OrdinalOf(0); ok {
		t.Error("node outside the loop reported an ordinal")
	}
	if o, ok := ix.OrdinalOf(3); !ok || o != 1 {
		t.Errorf("OrdinalOf(3) = (%d, %t), want (1, true)", o, ok)
	}
	if _, ok := ix.OrdinalOf(99); ok {
		t.Error("node beyond the graph reported an ordinal")
	}
	if g.LoopIterIndex(1) != ix {
		t.Error("second call re-derived the index instead of reading the memo")
	}
	absent := g.LoopIterIndex(2)
	if absent != nil {
		t.Fatal("loop no node executed in returned an index")
	}
	if _, ok := absent.OrdinalOf(1); ok || absent.NumGroups() != 0 {
		t.Error("nil index grouped a node")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Errorf("derived index fails invariants: %v", err)
	}
}

// TestIterIndexRecursionInnermostWins re-enters static loop 1 from inside
// its own iteration (recursion): nodes under the inner invocation belong
// to it, exactly as Scope.FrameFor resolves them, and the outer iteration
// keeps only the nodes recorded outside the recursive call.
func TestIterIndexRecursionInnermostWins(t *testing.T) {
	var root *Scope
	outer := root.Enter(1, 5).NextIter().NextIter() // L1#5[2]
	inner := outer.Enter(2, 6).Enter(1, 7)          // L1#5[2]/L2#6[0]/L1#7[0]
	inner1 := inner.NextIter()                      // L1#7[1]
	g := buildScopedGraph(t, []*Scope{outer, inner, inner1, outer}, nil)
	if got, want := keysOf(g, 1), "0#5[2] 1#7[0] 2#7[1] 0#5[2] "; got != want {
		t.Errorf("loop 1 grouping = %q, want %q", got, want)
	}
	if got, want := keysOf(g, 2), "- 0#6[0] 0#6[0] - "; got != want {
		t.Errorf("loop 2 grouping = %q, want %q", got, want)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Errorf("derived index fails invariants: %v", err)
	}
}

// TestIterIndexNodesOutsideLoop: nil-scope nodes and nodes of other loops
// get no ordinal, and do not perturb the loop's key table.
func TestIterIndexNodesOutsideLoop(t *testing.T) {
	var root *Scope
	a := root.Enter(1, 0)
	b := root.Enter(2, 1)
	g := buildScopedGraph(t, []*Scope{nil, a, b, nil, a.NextIter(), b.NextIter()}, nil)
	if got, want := keysOf(g, 1), "- 0#0[0] - - 1#0[1] - "; got != want {
		t.Errorf("loop 1 grouping = %q, want %q", got, want)
	}
	if got, want := keysOf(g, 2), "- - 0#1[0] - - 1#1[1] "; got != want {
		t.Errorf("loop 2 grouping = %q, want %q", got, want)
	}
}

// TestIterIndexThreadsDistinctInvocations runs one static loop on three
// threads, each entering it under its own invocation id, with the nodes
// interleaved out of invocation order: every (invocation, iteration) is
// its own group and ordinals ascend by (invocation, iteration), not by
// node order.
func TestIterIndexThreadsDistinctInvocations(t *testing.T) {
	var root *Scope
	t1, t2, t3 := root.Enter(3, 11), root.Enter(3, 12), root.Enter(3, 10)
	scopes := []*Scope{t2, t1, t3, t2.NextIter(), t1.NextIter(), t3.NextIter(), t2.NextIter()}
	threads := []int32{2, 1, 3, 2, 1, 3, 2}
	g := buildScopedGraph(t, scopes, threads)
	// Invocation 10 (thread 3) sorts first even though thread 2's node
	// comes first; t2.NextIter() twice is the same dynamic iteration.
	if got, want := keysOf(g, 3), "4#12[0] 2#11[0] 0#10[0] 5#12[1] 3#11[1] 1#10[1] 5#12[1] "; got != want {
		t.Errorf("loop 3 grouping = %q, want %q", got, want)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Errorf("derived index fails invariants: %v", err)
	}
}

// groupsOf buckets nodes by their loop ordinal in ascending ordinal order
// (the grouping compacted views present), mapping ids through back when
// non-nil.
func groupsOf(g *Graph, loop mir.LoopID, back []NodeID) [][]NodeID {
	ix := g.LoopIterIndex(loop)
	byOrd := map[int32][]NodeID{}
	var ords []int32
	for u := 0; u < g.NumNodes(); u++ {
		o, ok := ix.OrdinalOf(NodeID(u))
		if !ok {
			continue
		}
		if byOrd[o] == nil {
			ords = append(ords, o)
		}
		id := NodeID(u)
		if back != nil {
			id = back[u]
		}
		byOrd[o] = append(byOrd[o], id)
	}
	sort.Slice(ords, func(i, j int) bool { return ords[i] < ords[j] })
	out := make([][]NodeID, len(ords))
	for i, o := range ords {
		out[i] = byOrd[o]
	}
	return out
}

// TestIterIndexRestrictsThroughInducedSubgraph: a subgraph derives its own
// index, and its groups — mapped back to base ids — equal the base's
// groups restricted to the kept nodes.
func TestIterIndexRestrictsThroughInducedSubgraph(t *testing.T) {
	var root *Scope
	o0 := root.Enter(1, 0)
	o1 := o0.NextIter()
	i00 := o0.Enter(2, 1)
	i10 := o1.Enter(2, 2)
	scopes := []*Scope{nil, o0, i00, i00.NextIter(), o1, i10, i10.NextIter(), i10.NextIter().NextIter(), nil}
	g := buildScopedGraph(t, scopes, nil)
	for _, keep := range []Set{g.Nodes(), NewSet(0, 3, 4), NewSet(2, 5, 7, 8), NewSet(1, 6)} {
		sub, back := g.InducedSubgraph(keep)
		for _, loop := range []mir.LoopID{1, 2} {
			var want [][]NodeID
			for _, grp := range groupsOf(g, loop, nil) {
				var kept []NodeID
				for _, u := range grp {
					if keep.Contains(u) {
						kept = append(kept, u)
					}
				}
				if kept != nil {
					want = append(want, kept)
				}
			}
			got := groupsOf(sub, loop, back)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("keep %v loop %d: subgraph groups %v, want %v", keep, loop, got, want)
			}
		}
		if err := sub.CheckInvariants(); err != nil {
			t.Errorf("keep %v: subgraph index fails invariants: %v", keep, err)
		}
	}
}

// TestIterIndexConcurrentFirstUse: eight goroutines race to derive a fresh
// graph's indexes; all must observe the one memoized result (run under
// -race by make race).
func TestIterIndexConcurrentFirstUse(t *testing.T) {
	g := buildLoopGraph(t)
	var wg sync.WaitGroup
	got := make([]*LoopIterIndex, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = g.LoopIterIndex(1)
			if o, ok := got[i].OrdinalOf(4); !ok || o != 1 {
				t.Errorf("goroutine %d: OrdinalOf(4) = (%d, %t), want (1, true)", i, o, ok)
			}
		}(i)
	}
	wg.Wait()
	for i, ix := range got {
		if ix != got[0] {
			t.Fatalf("goroutine %d saw a different index than goroutine 0", i)
		}
	}
}

// TestCheckInvariantsCatchesIndexDrift corrupts the memoized ordinals so
// they disagree with the scope chains, and asserts the invariant checker
// rejects each flavor of drift.
func TestCheckInvariantsCatchesIndexDrift(t *testing.T) {
	cases := []struct {
		name string
		ord  []int32
	}{
		{"wrong-group", []int32{-1, 0, 1, 1, 1}},   // node 2 moved to iteration 1
		{"missing-node", []int32{-1, 0, -1, 1, 1}}, // node 2 dropped from the loop
		{"phantom-node", []int32{0, 0, 0, 1, 1}},   // node 0 pulled into the loop
		{"out-of-range", []int32{-1, 0, 2, 1, 1}},  // node 2 past the key table
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := buildLoopGraph(t)
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("clean graph fails invariants: %v", err)
			}
			copy(g.LoopIterIndex(1).ord, tc.ord)
			if err := g.CheckInvariants(); err == nil {
				t.Fatal("drifted index passed invariant checking")
			}
		})
	}
}
