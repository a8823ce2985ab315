package ddg

// Paging transparency for the graph surface the matchers read. The claim
// of the paged CSR is that everything above Succs/Preds runs unmodified;
// this suite pins it inside the package by running every *Graph attribute
// and derived analysis, plus the membership overlay, over the same node
// subsets twice — once on a resident graph, once on a spilled clone — and
// requiring identical answers.

import (
	"fmt"
	"strings"
	"testing"

	"discovery/internal/mir"
)

// buildViewGraph returns a small diamond-and-chain graph with loop scopes:
//
//	0 (init, no loop)
//	1,2 = loop 7 iter 0;  3,4 = loop 7 iter 1;  5 = join
func buildViewGraph(t *testing.T) *Graph {
	t.Helper()
	var root *Scope
	s0 := root.Enter(7, 0)
	s1 := s0.NextIter()
	fb := NewFrozenBuilder(6, 10)
	fb.AddNode(mir.OpSub, mir.Pos{File: "v.c", Line: 1}, 0, nil)
	fb.AddNode(mir.OpFAdd, mir.Pos{File: "v.c", Line: 2}, 1, s0, 0)
	fb.AddNode(mir.OpFMul, mir.Pos{File: "v.c", Line: 3}, 1, s0, 1)
	fb.AddNode(mir.OpFAdd, mir.Pos{File: "v.c", Line: 2}, 2, s1, 0)
	fb.AddNode(mir.OpFMul, mir.Pos{File: "v.c", Line: 3}, 2, s1, 3)
	fb.AddNode(mir.OpFAdd, mir.Pos{File: "v.c", Line: 4}, 0, nil, 2, 4)
	g, err := fb.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return g
}

// graphSig renders everything a matcher can observe of g over the node
// subset nodes: the whole graph's attributes and adjacency, the overlay of
// nodes, and every derived analysis over nodes and its halves.
func graphSig(g *Graph, nodes Set) string {
	var b strings.Builder
	fmt.Fprintf(&b, "numNodes=%d numArcs=%d fp=%v\n", g.NumNodes(), g.NumArcs(), g.Fingerprint())
	ix := g.LoopIterIndex(7)
	for i := 0; i < g.NumNodes(); i++ {
		u := NodeID(i)
		key, inLoop := g.IterationOf(u, 7)
		ord := int32(-1)
		if o, ok := ix.OrdinalOf(u); ok {
			ord = o
		}
		fmt.Fprintf(&b, "%d op=%v pos=%s:%d thread=%d scope=%s iter=%v/%t ord=%d succ=%v pred=%v\n",
			u, g.Op(u), g.Pos(u).File, g.Pos(u).Line, g.Thread(u), g.ScopeOf(u).String(),
			key, inLoop, ord, g.Succs(u), g.Preds(u))
	}

	// The membership overlay: rank and member successors of every id.
	sv := g.Overlay(nodes)
	fmt.Fprintf(&b, "overlay len=%d nodes=%v\n", sv.Len(), sv.Nodes())
	for i := 0; i < g.NumNodes()+64; i++ {
		u := NodeID(i)
		var succ []NodeID
		if sv.Contains(u) {
			sv.EachSucc(u, func(v NodeID) bool { succ = append(succ, v); return true })
		}
		fmt.Fprintf(&b, "%d in=%t rank=%d succ=%v\n", u, sv.Contains(u), sv.Rank(u), succ)
	}

	// Derived analyses over the subset, its two halves, and the subset as
	// the ambient set.
	h := len(nodes) / 2
	lo, hi := nodes[:h], nodes[h:]
	var reach []bool
	for _, u := range nodes {
		for _, v := range nodes {
			reach = append(reach, g.Reaches(u, v))
		}
	}
	fmt.Fprintf(&b, "convex=%t/%t reach=%v reachable=%v/%v\n", g.Convex(nodes, nil), g.Convex(hi, nodes),
		reach, g.ReachableFrom(lo, nil), g.ReachableFrom(lo, nodes))
	fmt.Fprintf(&b, "wcc=%v wc=%t/%t wci=%t/%t\n", g.WeaklyConnectedComponents(nodes),
		g.WeaklyConnected(nodes), g.WeaklyConnected(hi), g.WeaklyConnectedWithInputs(nodes), g.WeaklyConnectedWithInputs(hi))
	bd := g.BoundaryOf(lo, nodes)
	fmt.Fprintf(&b, "arcs=%v/%v boundary=%v/%v extIn=%t/%t extOut=%t/%t adjacent=%t flows=%t/%t\n",
		g.ArcsBetween(lo, hi), g.ArcsBetween(nodes, nodes), bd.In, bd.Out,
		g.HasExternalIn(hi, nil), g.HasExternalIn(hi, nodes), g.HasExternalOut(lo, nil), g.HasExternalOut(lo, nodes),
		g.Adjacent(lo, hi), g.FlowsInto(lo, hi), g.FlowsInto(lo, NewSet(5)))
	op, assoc := g.AllAssociative(nodes)
	fmt.Fprintf(&b, "label=%q opset=%q subset=%t/%t assoc=%v/%t",
		g.LabelKey(nodes), g.OpSetKey(nodes), g.OpSetSubset(lo, nodes), g.OpSetSubset(nodes, lo), op, assoc)
	return b.String()
}

func TestSubViewOverSpilledBase(t *testing.T) {
	subsets := []Set{
		NewSet(0, 1, 2, 3, 4, 5),
		NewSet(1, 2, 3, 4),
		NewSet(0, 5),
		NewSet(1, 3, 5),
		NewSet(2, 4, 5),
		NewSet(3),
	}
	resident := buildViewGraph(t)
	spilled := buildViewGraph(t)
	if err := spilled.SpillArcs(SpillConfig{Dir: t.TempDir(), Budget: 8, SegmentBytes: 8}); err != nil {
		t.Fatalf("SpillArcs: %v", err)
	}
	defer spilled.CloseSpill()
	if !spilled.Spilled() {
		t.Fatal("clone did not spill")
	}
	for i, nodes := range subsets {
		if got, want := graphSig(spilled, nodes), graphSig(resident, nodes); got != want {
			t.Fatalf("subset %d: the spilled graph diverged:\ngot:\n%s\nwant:\n%s", i, got, want)
		}
		if sv := spilled.Overlay(nodes); sv.Base() != spilled {
			t.Fatalf("subset %d: Base() lost the spilled graph", i)
		}
	}
}
