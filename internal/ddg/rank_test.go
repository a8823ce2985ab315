package ddg

// Differential tests for the rank-indexed kernels of the matching path.
// Each replaced implementation lives on here as the reference the new one
// must agree with: the binary-search position lookup (Set.IndexOf) for
// SubView.Rank/Contains, the map-keyed union-find for
// WeaklyConnectedComponents, and the pairwise Union fold for UnionAll.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"discovery/internal/mir"
)

// refIndexOf is the sorted-set reference for SubView.Rank: the position of
// id in s by binary search, or -1 if absent.
func refIndexOf(s Set, id NodeID) int {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	if i < len(s) && s[i] == id {
		return i
	}
	return -1
}

// refWeaklyConnectedComponents is the map-keyed union-find reference for
// WeaklyConnectedComponents.
func refWeaklyConnectedComponents(g *Graph, nodes Set) []Set {
	if len(nodes) == 0 {
		return nil
	}
	parent := make(map[NodeID]NodeID, len(nodes))
	for _, u := range nodes {
		parent[u] = u
	}
	find := func(u NodeID) NodeID {
		for parent[u] != u {
			parent[u] = parent[parent[u]]
			u = parent[u]
		}
		return u
	}
	for _, u := range nodes {
		for _, v := range g.Succs(u) {
			if _, in := parent[v]; in {
				if ru, rv := find(u), find(v); ru != rv {
					parent[ru] = rv
				}
			}
		}
	}
	groups := map[NodeID]Set{}
	for _, u := range nodes {
		r := find(u)
		groups[r] = append(groups[r], u)
	}
	out := make([]Set, 0, len(groups))
	for _, members := range groups {
		out = append(out, NewSet(members...))
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// refConnectedWithInputs is the component-list reference for
// WeaklyConnectedWithInputs: nodes must fall in one component of the
// subgraph induced by nodes plus their direct predecessors.
func refConnectedWithInputs(g *Graph, nodes Set) bool {
	if len(nodes) <= 1 {
		return true
	}
	var preds []NodeID
	for _, u := range nodes {
		preds = append(preds, g.Preds(u)...)
	}
	for _, comp := range refWeaklyConnectedComponents(g, nodes.Union(NewSet(preds...))) {
		if comp.Contains(nodes[0]) {
			return nodes.SubsetOf(comp)
		}
	}
	return false
}

// refUnionAll is the pairwise-fold reference for UnionAll.
func refUnionAll(sets ...Set) Set {
	var out Set
	for _, s := range sets {
		out = out.Union(s)
	}
	return out
}

// checkRank compares Rank and Contains on the overlay of s with the
// sorted-set reference at every probe id. Building the mask reads nothing
// of the base graph, so an empty one serves for any id range.
func checkRank(t *testing.T, s Set, probes []NodeID) {
	t.Helper()
	sv := arcGraph(nil).Overlay(s)
	for _, u := range probes {
		want := refIndexOf(s, u)
		if got := sv.Rank(u); got != want {
			t.Fatalf("set %v: Rank(%d) = %d, want %d", s, u, got, want)
		}
		if got := sv.Contains(u); got != (want >= 0) {
			t.Fatalf("set %v: Contains(%d) = %t, want %t", s, u, got, want >= 0)
		}
	}
}

// rankProbes returns every id from 0 to 64 past the set's last member,
// the word boundaries around each member, and ids far above the span.
func rankProbes(s Set) []NodeID {
	hi := NodeID(64)
	if len(s) > 0 {
		hi += s[len(s)-1]
	}
	var probes []NodeID
	for u := NodeID(0); u <= hi; u++ {
		probes = append(probes, u)
	}
	for _, u := range s {
		w := u &^ 63
		probes = append(probes, w, w+63, w+64)
		if w > 0 {
			probes = append(probes, w-1)
		}
	}
	return append(probes, 1<<20, math.MaxInt32, math.MaxUint32-64, math.MaxUint32)
}

func TestOverlayRankMatchesSortedSet(t *testing.T) {
	edge := []Set{
		nil,
		NewSet(0),
		NewSet(63),
		NewSet(64),
		NewSet(63, 64),
		NewSet(0, 63, 64, 127, 128),
		NewSet(1, 4095),
		NewSet(200, 201, 202),
		NewSet(math.MaxUint32 - 1),
	}
	for _, s := range edge {
		checkRank(t, s, rankProbes(s))
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		// Alternate dense clusters, sparse spreads, and sets whose first
		// member sits far above zero (a span that does not start at word 0).
		span := 1 + rng.Intn(2000)
		base := NodeID(0)
		if trial%3 == 2 {
			base = NodeID(rng.Intn(10000))
		}
		ids := make([]NodeID, rng.Intn(300))
		for i := range ids {
			ids[i] = base + NodeID(rng.Intn(span))
		}
		s := NewSet(ids...)
		checkRank(t, s, rankProbes(s))
	}
}

// FuzzOverlayRank checks SubView.Rank and Contains against the sorted-set
// reference on fuzzer-shaped member sets: each byte pair is one id in
// [0, 4096), so sets straddle many 64-bit words, and every id up to a word
// past the last member is probed.
func FuzzOverlayRank(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 63, 0, 64})
	f.Add([]byte{15, 255, 0, 1, 0, 128})
	f.Add([]byte{1, 0, 1, 1, 1, 63, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		var ids []NodeID
		for i := 0; i+1 < len(data); i += 2 {
			ids = append(ids, NodeID(int(data[i])<<8|int(data[i+1]))%4096)
		}
		s := NewSet(ids...)
		checkRank(t, s, rankProbes(s))
	})
}

// randomDAG builds a DAG of n nodes whose arcs mostly join nearby ids
// (the locality traced DDGs have) with occasional long arcs, plus parallel
// arcs and isolated nodes.
func randomDAG(rng *rand.Rand, n int) *Graph {
	fb := NewFrozenBuilder(n, 2*n)
	for v := 0; v < n; v++ {
		var preds []NodeID
		if v > 0 {
			for k := rng.Intn(3); k > 0; k-- {
				u := v - 1 - rng.Intn(min(v, 8))
				if rng.Intn(10) == 0 {
					u = rng.Intn(v)
				}
				preds = append(preds, NodeID(u))
			}
		}
		fb.AddNode(mir.OpFAdd, mir.Pos{File: "r.c", Line: 1}, 0, nil, preds...)
	}
	g, err := fb.Finish()
	if err != nil {
		panic(err)
	}
	return g
}

// randomSubset draws each id of [0, n) with probability p.
func randomSubset(rng *rand.Rand, n int, p float64) Set {
	var out Set
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			out = append(out, NodeID(i))
		}
	}
	return out
}

func sameSets(a, b []Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestWeaklyConnectedComponentsMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(400)
		g := randomDAG(rng, n)
		for _, p := range []float64{0, 0.05, 0.3, 0.7, 1} {
			nodes := randomSubset(rng, n, p)
			want := refWeaklyConnectedComponents(g, nodes)
			if got := g.WeaklyConnectedComponents(nodes); !sameSets(got, want) {
				t.Fatalf("trial %d p=%.2f: WCC = %v, want %v", trial, p, got, want)
			}
			if got, want := g.WeaklyConnected(nodes), len(want) <= 1; got != want {
				t.Fatalf("trial %d p=%.2f: WeaklyConnected = %t, want %t", trial, p, got, want)
			}
			if got, want := g.WeaklyConnectedWithInputs(nodes), refConnectedWithInputs(g, nodes); got != want {
				t.Fatalf("trial %d p=%.2f: WeaklyConnectedWithInputs = %t, want %t", trial, p, got, want)
			}
		}
	}
}

func TestWeaklyConnectedComponentsAreCapped(t *testing.T) {
	// Components share one buffer; appending to one must not overwrite the
	// next.
	g := viewTestGraph()
	comps := g.WeaklyConnectedComponents(NewSet(0, 2, 3))
	if len(comps) != 2 {
		t.Fatalf("comps = %v, want two", comps)
	}
	_ = append(comps[0], 99)
	if !comps[1].Equal(NewSet(2, 3)) {
		t.Errorf("append to component 0 clobbered component 1: %v", comps[1])
	}
}

func TestUnionAllMatchesFold(t *testing.T) {
	if got := UnionAll(); got != nil {
		t.Errorf("UnionAll() = %v, want nil", got)
	}
	if got := UnionAll(nil, Set{}); got == nil || got.Len() != 0 {
		t.Errorf("UnionAll(empty, empty) = %#v, want a non-nil empty set", got)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		sets := make([]Set, rng.Intn(8))
		for i := range sets {
			// Overlapping ranges, disjoint ranges, and empty sets.
			lo := rng.Intn(100)
			ids := make([]NodeID, rng.Intn(20))
			for k := range ids {
				ids[k] = NodeID(lo + rng.Intn(40))
			}
			sets[i] = NewSet(ids...)
		}
		want := refUnionAll(sets...)
		got := UnionAll(sets...)
		if !got.Equal(want) || (got == nil) != (want == nil) {
			t.Fatalf("UnionAll(%v) = %#v, want %#v", sets, got, want)
		}
	}
	// The result is fresh: mutating it leaves the inputs alone.
	a := NewSet(1, 2)
	u := UnionAll(a)
	u[0] = 9
	if a[0] != 1 {
		t.Error("UnionAll shares the input's backing array")
	}
}
