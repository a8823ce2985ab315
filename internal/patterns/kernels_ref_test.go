package patterns

// Differential tests for the matching-path kernels that replaced per-node
// maps and pairwise scans. The replaced implementations live on here as
// references: the map-bucket LoopView grouping, the pairwise ArcsBetween
// scan of VerifyMap's constraint (2b), and the ViewKey hash the finder's
// cache keys are built from.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/ddg/ddgtest"
	"discovery/internal/mir"
)

// refLoopGroups is the map-bucket reference for LoopView's grouping:
// nodes bucket by iteration ordinal, buckets are emitted in ascending
// ordinal order, then loose nodes one per group in input order.
func refLoopGroups(g *ddg.Graph, nodes ddg.Set, loop mir.LoopID) []ddg.Set {
	ix := g.LoopIterIndex(loop)
	byOrd := map[int32][]ddg.NodeID{}
	var loose []ddg.NodeID
	for _, u := range nodes {
		if o, ok := ix.OrdinalOf(u); ok {
			byOrd[o] = append(byOrd[o], u)
		} else {
			loose = append(loose, u)
		}
	}
	ords := make([]int32, 0, len(byOrd))
	for o := range byOrd {
		ords = append(ords, o)
	}
	sort.Slice(ords, func(i, j int) bool { return ords[i] < ords[j] })
	groups := make([]ddg.Set, 0, len(ords)+len(loose))
	for _, o := range ords {
		groups = append(groups, ddg.NewSet(byOrd[o]...))
	}
	for _, u := range loose {
		groups = append(groups, ddg.NewSet(u))
	}
	return groups
}

// refVerifyMap is VerifyMap with constraint (2b) checked by the pairwise
// ArcsBetween scan it replaced.
func refVerifyMap(g *ddg.Graph, p *Pattern) error {
	if !p.Kind.IsMapKind() {
		return fmt.Errorf("not a map kind: %v", p.Kind)
	}
	if err := VerifyPattern(g, p.Comps); err != nil {
		return err
	}
	if len(p.Comps) < 2 {
		return fmt.Errorf("map needs at least two components")
	}
	full := p.Comps[:p.numFull()]
	if len(full) == 0 {
		return fmt.Errorf("map has no output-producing components")
	}
	if p.Kind == KindMap {
		if err := verifyIsomorphic(g, full); err != nil {
			return err
		}
	}
	for i := range p.Comps {
		for j := range p.Comps {
			if i != j && len(g.ArcsBetween(p.Comps[i], p.Comps[j])) > 0 {
				return fmt.Errorf("arc between components %d and %d", i, j)
			}
		}
	}
	for i, c := range p.Comps {
		if !g.HasExternalIn(c, nil) {
			return fmt.Errorf("component %d has no input", i)
		}
	}
	for i, c := range full {
		if !g.HasExternalOut(c, nil) {
			return fmt.Errorf("component %d has no output", i)
		}
	}
	return nil
}

// scopedDAG builds a random forward-arc graph whose nodes run in loop 1
// (three invocations, interleaved so ordinals do not follow ids), some of
// them nested in loop 2, and some in no loop at all.
func scopedDAG(r *prng, n int) *ddg.Graph {
	var b ddgtest.Builder
	for i := 0; i < n; i++ {
		var scope *ddg.Scope
		switch r.intn(5) {
		case 0: // loose
		case 1:
			outer := &ddg.Scope{Loop: 1, Invocation: uint64(1 + r.intn(3)), Iter: int64(r.intn(6))}
			scope = &ddg.Scope{Loop: 2, Invocation: uint64(1 + r.intn(2)), Iter: int64(r.intn(4)), Parent: outer}
		default:
			scope = &ddg.Scope{Loop: 1, Invocation: uint64(1 + r.intn(3)), Iter: int64(r.intn(6))}
		}
		b.AddNode(mir.OpFAdd, mir.Pos{File: "s.c", Line: 1}, 0, scope)
	}
	// Mostly short arcs, as in traces, with some long ones.
	for v := 1; v < n; v++ {
		for k := r.intn(3); k > 0; k-- {
			u := v - 1 - r.intn(min(v, 6))
			if r.intn(4) == 0 {
				u = r.intn(v)
			}
			b.Arc(ddg.NodeID(u), ddg.NodeID(v))
		}
	}
	return b.Graph()
}

func TestLoopViewMatchesMapBucketReference(t *testing.T) {
	for seed := uint64(1); seed <= 80; seed++ {
		r := &prng{s: seed | 1}
		n := 1 + r.intn(300)
		g := scopedDAG(r, n)
		var amb []ddg.NodeID
		for i := 0; i < n; i++ {
			if r.intn(3) != 0 {
				amb = append(amb, ddg.NodeID(i))
			}
		}
		nodes := ddg.NewSet(amb...)
		for _, loop := range []mir.LoopID{1, 2, 3} { // loop 3: no index, all loose
			want := refLoopGroups(g, nodes, loop)
			v := LoopView(g, nodes, loop)
			if len(v.Groups) != len(want) {
				t.Fatalf("seed %d loop %d: %d groups, want %d", seed, loop, len(v.Groups), len(want))
			}
			for i := range want {
				if !v.Groups[i].Equal(want[i]) {
					t.Fatalf("seed %d loop %d: group %d = %v, want %v", seed, loop, i, v.Groups[i], want[i])
				}
			}
			// NewView over a prebuilt overlay groups identically.
			if w := NewView(g.Overlay(nodes), loop); len(w.Groups) != len(want) {
				t.Fatalf("seed %d loop %d: NewView has %d groups, want %d", seed, loop, len(w.Groups), len(want))
			}
		}
	}
}

func TestLoopViewGroupsAreCapped(t *testing.T) {
	// Groups share one buffer; appending to one must not overwrite the next.
	g, ambient := buildMapDDG(3)
	v := LoopView(g, ambient, 1)
	second := v.Groups[1].Clone()
	_ = append(v.Groups[0], 999)
	if !v.Groups[1].Equal(second) {
		t.Errorf("append to group 0 clobbered group 1: %v, want %v", v.Groups[1], second)
	}
}

// checkVerifyMap compares VerifyMap's verdict and error text with the
// pairwise reference, and reports whether the reference failed at (2b).
func checkVerifyMap(t *testing.T, name string, g *ddg.Graph, p *Pattern) bool {
	t.Helper()
	want := refVerifyMap(g, p)
	got := VerifyMap(g, p)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: VerifyMap = %v, reference = %v", name, got, want)
	}
	return want != nil && strings.HasPrefix(want.Error(), "arc between components")
}

func TestVerifyMapCrossArcsMatchPairwiseReference(t *testing.T) {
	hits := 0
	// Structured maps with planted arcs from earlier to later components:
	// everything before (2b) still holds, so (2b) decides.
	for seed := uint64(1); seed <= 60; seed++ {
		r := &prng{s: seed | 1}
		k := 2 + r.intn(6)
		b := newGB()
		ambient := addMapDDG(b, k)
		comps := LoopView(b.Graph(), ambient, 1).Groups
		for plant := r.intn(3); plant > 0; plant-- {
			i := r.intn(k - 1)
			j := i + 1 + r.intn(k-i-1)
			b.Arc(comps[i][r.intn(2)], comps[j][0])
		}
		g := b.Graph()
		p := &Pattern{Kind: KindMap, Comps: comps, NumFull: k}
		if checkVerifyMap(t, fmt.Sprintf("map seed %d", seed), g, p) {
			hits++
		}
	}
	// Random graphs: small components over a contiguous id
	// range (contiguous, so the union is convex), assigned to components
	// out of id order so cross arcs run in every direction between
	// component indexes.
	for seed := uint64(100); seed <= 800; seed++ {
		r := &prng{s: seed | 1}
		n := 8 + r.intn(200)
		g := scopedDAG(r, n)
		lo := r.intn(n / 2)
		hi := lo + 2 + r.intn(min(n-lo-2, 24))
		ids := make([]ddg.NodeID, 0, hi-lo)
		for u := lo; u < hi; u++ {
			ids = append(ids, ddg.NodeID(u))
		}
		for i := len(ids) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			ids[i], ids[j] = ids[j], ids[i]
		}
		// Mostly singletons, which are trivially weakly connected (1d).
		var comps []ddg.Set
		for len(ids) > 0 {
			take := 1
			if len(ids) > 1 && r.intn(4) == 0 {
				take = 2
			}
			comps = append(comps, ddg.NewSet(ids[:take]...))
			ids = ids[take:]
		}
		p := &Pattern{Kind: KindConditionalMap, Comps: comps, NumFull: 1 + r.intn(len(comps))}
		if checkVerifyMap(t, fmt.Sprintf("random seed %d", seed), g, p) {
			hits++
		}
	}
	// The comparison only means something if (2b) decided often.
	if hits < 100 {
		t.Errorf("only %d cases reached constraint (2b); generator too hostile", hits)
	}
}

func TestViewKeyOfPinsViewKey(t *testing.T) {
	nodes := ddg.NewSet(3, 5, 64, 200)
	// Pinned values: the daemon's view-cache keys depend on them, so any
	// change here invalidates every stored verdict.
	pins := map[mir.LoopID]ddg.Hash128{
		0: {Hi: 0xe1a5ad99539371e6, Lo: 0x2a2bf8d4fde0207d},
		7: {Hi: 0x98b6506c7018a2b6, Lo: 0x49a70e4d6f245cf3},
	}
	for loop, want := range pins {
		if got := ViewKey(nodes, loop); got != want {
			t.Errorf("ViewKey(nodes, %d) = %#v, want %#v", loop, got, want)
		}
		if got := ViewKeyOf(nodes.Hash(), loop); got != want {
			t.Errorf("ViewKeyOf(nodes.Hash(), %d) = %#v, want %#v", loop, got, want)
		}
		empty := new(ddgtest.Builder).Graph()
		v := NodeView(empty, nodes)
		if loop != 0 {
			v = LoopView(empty, nodes, loop)
		}
		if got := v.Hash(); got != want {
			t.Errorf("view hash for loop %d = %#v, want %#v", loop, got, want)
		}
	}
}
