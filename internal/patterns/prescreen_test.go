package patterns

// Prescreen census and verdict tests. The contract under test is one-sided
// soundness: CannotMatch(kind) must imply the kind's matcher returns nil
// on the corresponding view. The census is also checked field-by-field on
// the canonical shapes, and — the sharp edge — each canonical shape must
// NOT be prescreened away for its own kind (a false CannotMatch on a real
// pattern would silently lose it, which is exactly what the differential
// suite in core guards end to end).

import (
	"fmt"
	"reflect"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// screenKinds are the kinds the prescreen reasons about, in slot order.
var screenKinds = []Kind{KindMap, KindLinearReduction, KindTiledReduction, KindTreeReduction}

// runMatcher invokes kind's matcher on the view with no budget.
func runMatcherOn(v *View, k Kind) *Pattern {
	switch k {
	case KindMap:
		return MatchMap(v)
	case KindLinearReduction:
		return MatchLinearReduction(v, nil)
	case KindTiledReduction:
		return MatchTiledReduction(v, nil)
	default:
		return MatchTreeReduction(v)
	}
}

// checkSound fails if any CannotMatch verdict contradicts the matcher on
// both the node view and the loop-1 view of the set.
func checkSound(t *testing.T, g *ddg.Graph, nodes ddg.Set) {
	t.Helper()
	for _, loop := range []mir.LoopID{0, 1} {
		p := PrescreenSub(g.Overlay(nodes), loop)
		var v *View
		if loop == 0 {
			v = NodeView(g, nodes)
		} else {
			v = LoopView(g, nodes, loop)
		}
		for _, k := range screenKinds {
			if !p.CannotMatch(k) {
				continue
			}
			if got := runMatcherOn(v, k); got != nil {
				t.Errorf("loop=%d: prescreen says cannot match %v, but the matcher found %v",
					loop, k, got.Kind)
			}
		}
	}
}

func TestPrescreenCensusOnMap(t *testing.T) {
	g, nodes := buildMapDDG(4)
	p := PrescreenSub(g.Overlay(nodes), 1)
	if !p.CompactedLoop {
		t.Errorf("loop view not marked compacted")
	}
	if p.NumNodes != 8 || p.InterGroup {
		t.Errorf("census: nodes=%d intergroup=%v, want 8 members with no cross-iteration arc",
			p.NumNodes, p.InterGroup)
	}
	if p.ExtIn == 0 || p.ExtOut == 0 {
		t.Errorf("census: extIn=%d extOut=%d, want both positive", p.ExtIn, p.ExtOut)
	}
	// The map must survive its own prescreen; the reductions must not
	// (fsub/fmul is not one associative op).
	if p.CannotMatch(KindMap) {
		t.Errorf("prescreen rejects the canonical map")
	}
	for _, k := range []Kind{KindLinearReduction, KindTiledReduction, KindTreeReduction} {
		if !p.CannotMatch(k) {
			t.Errorf("mixed-op view not prescreened for %v", k)
		}
	}
	checkSound(t, g, nodes)
}

func TestPrescreenCensusOnChain(t *testing.T) {
	g, nodes := buildChainDDG(6)
	p := PrescreenSub(g.Overlay(nodes), 0)
	if p.Arcs != 5 || p.MaxIn != 1 || p.MaxOut != 1 || p.Sources != 1 || p.Sinks != 1 {
		t.Errorf("chain census: arcs=%d maxIn=%d maxOut=%d sources=%d sinks=%d",
			p.Arcs, p.MaxIn, p.MaxOut, p.Sources, p.Sinks)
	}
	if !p.AllAssocOneOp {
		t.Errorf("fadd chain not recognized as one associative op")
	}
	if p.CannotMatch(KindLinearReduction) {
		t.Errorf("prescreen rejects the canonical linear reduction")
	}
	if !p.CannotMatch(KindMap) {
		t.Errorf("a connected chain can never be a map; prescreen missed it")
	}
	checkSound(t, g, nodes)
}

func TestPrescreenCensusOnTiled(t *testing.T) {
	g, nodes := buildTiledDDG(3, 4)
	p := PrescreenSub(g.Overlay(nodes), 0)
	if p.CannotMatch(KindTiledReduction) {
		t.Errorf("prescreen rejects the canonical tiled reduction")
	}
	if p.Junctions == 0 {
		t.Errorf("tiled census found no junctions; final-chain joins missed")
	}
	checkSound(t, g, nodes)
}

func TestPrescreenParallelArcsDeduplicated(t *testing.T) {
	// u feeds w through both operands: two arcs in the DDG, one
	// group-level arc for the matchers — the census must count one.
	b := newGB()
	src := b.node(mir.OpI2F, -1)
	u := b.node(mir.OpFAdd, 0, src)
	w := b.node(mir.OpFAdd, 1, u, u)
	b.node(mir.OpFloor, -1, w)
	nodes := ddg.NewSet(u, w)
	p := PrescreenSub(b.Graph().Overlay(nodes), 0)
	if p.Arcs != 1 {
		t.Errorf("parallel arcs counted as %d, want 1", p.Arcs)
	}
	if p.CannotMatch(KindLinearReduction) {
		t.Errorf("two-node fadd chain prescreened away")
	}
	checkSound(t, b.Graph(), nodes)
}

func TestPrescreenNilIsMaybe(t *testing.T) {
	var p *Prescreen
	for _, k := range screenKinds {
		if p.CannotMatch(k) {
			t.Errorf("nil prescreen claims cannot-match for %v", k)
		}
	}
}

// genScreenGraph builds a deterministic graph + member set from fuzz
// bytes: a DAG over up to 24 members with data-driven ops, arcs,
// iteration scopes, and external producers/consumers. Always valid, never
// panics; the interesting structure (chains, joins, isolated nodes,
// mixed ops) all arise for some byte string.
func genScreenGraph(data []byte) (*ddg.Graph, ddg.Set) {
	at := func(i int) int {
		if len(data) == 0 {
			return 0
		}
		return int(data[i%len(data)])
	}
	n := 2 + at(0)%23
	ops := []mir.Op{mir.OpFAdd, mir.OpFMul, mir.OpAdd, mir.OpFSub, mir.OpFMax, mir.OpFDiv}
	b := newGB()
	members := make([]ddg.NodeID, n)
	cursor := 1
	next := func() int { v := at(cursor); cursor++; return v }
	for i := 0; i < n; i++ {
		op := ops[next()%len(ops)]
		iter := int64(-1)
		if next()%4 != 0 {
			iter = int64(next() % 5) // small iteration classes force sharing
		}
		var preds []ddg.NodeID
		if next()%3 == 0 {
			preds = append(preds, b.node(mir.OpI2F, -1)) // external producer
		}
		for _, m := range members[:i] {
			switch next() % 8 {
			case 0:
				preds = append(preds, m)
			case 1:
				preds = append(preds, m, m) // parallel arc
			}
		}
		members[i] = b.node(op, iter, preds...)
	}
	for i := 0; i < n; i++ {
		if next()%3 == 0 {
			b.node(mir.OpFloor, -1, members[i]) // external consumer
		}
	}
	return b.Graph(), ddg.NewSet(members...)
}

// FuzzPrescreen fuzzes the one-sided soundness property: on arbitrary
// generated views, every CannotMatch verdict must agree with the matcher.
func FuzzPrescreen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 2, 3})
	f.Add([]byte{24, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{200, 9, 33, 1, 77, 5, 0, 8, 14, 3, 91, 2})
	f.Add([]byte{16, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, nodes := genScreenGraph(data)
		checkSound(t, g, nodes)
	})
}

// prescreenMismatch names the first exported field or CannotMatch verdict
// on which got and want differ, or returns "" when they agree. Fields are
// walked by reflection so a field added later is compared too.
func prescreenMismatch(got, want *Prescreen) string {
	vg, vw := reflect.ValueOf(*got), reflect.ValueOf(*want)
	for i := 0; i < vg.NumField(); i++ {
		if f := vg.Type().Field(i); f.IsExported() && vg.Field(i).Interface() != vw.Field(i).Interface() {
			return fmt.Sprintf("%s = %v, want %v", f.Name, vg.Field(i), vw.Field(i))
		}
	}
	for k := 0; k < 256; k++ {
		if g, w := got.CannotMatch(Kind(k)), want.CannotMatch(Kind(k)); g != w {
			return fmt.Sprintf("CannotMatch(%v) = %v, want %v", Kind(k), g, w)
		}
	}
	return ""
}

// checkDiff derives the census of nodes \ removed from the census of nodes
// and fails unless it equals a full census of the difference, for both the
// node view and the loop-1 view. It returns the node view's parent and
// derived censuses.
func checkDiff(t *testing.T, g *ddg.Graph, nodes, removed ddg.Set) (parent, derived *Prescreen) {
	t.Helper()
	diff := nodes.Diff(removed)
	for _, loop := range []mir.LoopID{1, 0} {
		parent = PrescreenSub(g.Overlay(nodes), loop)
		sub := g.Overlay(diff)
		got := PrescreenDiff(parent, sub, removed, loop)
		want := PrescreenSub(sub, loop)
		if m := prescreenMismatch(got, want); m != "" {
			t.Fatalf("loop=%d, %d members minus %v: derived census %s", loop, nodes.Len(), removed, m)
		}
		if again := PrescreenSub(g.Overlay(nodes), loop); prescreenMismatch(parent, again) != "" {
			t.Fatalf("loop=%d: PrescreenDiff modified its parent census", loop)
		}
		derived = got
	}
	return parent, derived
}

func TestPrescreenDiffEdgeCases(t *testing.T) {
	t.Run("empties the top in-degree bucket", func(t *testing.T) {
		// w is the only member of in-degree two; removing one of its
		// producers must drop MaxIn to one and Junctions to zero.
		b := newGB()
		u := b.node(mir.OpFAdd, 0, b.node(mir.OpI2F, -1))
		v := b.node(mir.OpFAdd, 1, b.node(mir.OpI2F, -1))
		w := b.node(mir.OpFAdd, 2, u, v)
		x := b.node(mir.OpFAdd, 3, w)
		p, d := checkDiff(t, b.Graph(), ddg.NewSet(u, v, w, x), ddg.NewSet(v))
		if p.MaxIn != 2 || p.Junctions != 1 || d.MaxIn != 1 || d.Junctions != 0 {
			t.Errorf("MaxIn/Junctions %d/%d -> %d/%d, want 2/1 -> 1/0", p.MaxIn, p.Junctions, d.MaxIn, d.Junctions)
		}
	})
	t.Run("drops the last non-associative op", func(t *testing.T) {
		// Removing the one fsub leaves an all-fadd chain.
		b := newGB()
		chain := addChainDDG(b, 4)
		odd := b.node(mir.OpFSub, 4, chain[len(chain)-1])
		if p, d := checkDiff(t, b.Graph(), chain.Union(ddg.NewSet(odd)), ddg.NewSet(odd)); p.AllAssocOneOp || !d.AllAssocOneOp {
			t.Errorf("AllAssocOneOp %v -> %v, want false -> true", p.AllAssocOneOp, d.AllAssocOneOp)
		}
		// The map's fsub/fmul pairs lose every fsub: fmul alone is one
		// associative op.
		g2, mapNodes := buildMapDDG(3)
		var subs []ddg.NodeID
		for i := 0; i < len(mapNodes); i += 2 {
			subs = append(subs, mapNodes[i])
		}
		if _, d := checkDiff(t, g2, mapNodes, ddg.NewSet(subs...)); !d.AllAssocOneOp {
			t.Errorf("fmul-only difference not one associative op")
		}
	})
	t.Run("removes everything but one member", func(t *testing.T) {
		g, chain := buildChainDDG(4)
		checkDiff(t, g, chain, chain[1:])
		checkDiff(t, g, chain, chain[:3])
	})
	t.Run("isolates a neighbour", func(t *testing.T) {
		// x's only predecessor is the member w: removing w turns it into an
		// external producer of x; removing x leaves w an isolated sink.
		b := newGB()
		w := b.node(mir.OpFAdd, 0)
		x := b.node(mir.OpFAdd, 0, w)
		y := b.node(mir.OpFAdd, 1)
		checkDiff(t, b.Graph(), ddg.NewSet(w, x, y), ddg.NewSet(w))
		checkDiff(t, b.Graph(), ddg.NewSet(w, x, y), ddg.NewSet(x))
	})
	t.Run("removes the only loop-carried arc", func(t *testing.T) {
		b := newGB()
		a := b.node(mir.OpFMul, 0, b.node(mir.OpI2F, -1))
		c := b.node(mir.OpFMul, 1, a)
		d := b.node(mir.OpFMul, 1, b.node(mir.OpI2F, -1))
		b.node(mir.OpFloor, -1, c)
		nodes := ddg.NewSet(a, c, d)
		checkDiff(t, b.Graph(), nodes, ddg.NewSet(a))
		p := PrescreenSub(b.Graph().Overlay(nodes), 1)
		dv := PrescreenDiff(p, b.Graph().Overlay(ddg.NewSet(c, d)), ddg.NewSet(a), 1)
		if !p.InterGroup || dv.InterGroup {
			t.Errorf("InterGroup %v -> %v, want true -> false", p.InterGroup, dv.InterGroup)
		}
	})
	t.Run("parallel arcs into the border", func(t *testing.T) {
		b := newGB()
		u := b.node(mir.OpFAdd, 0, b.node(mir.OpI2F, -1))
		v := b.node(mir.OpFAdd, 0, u, u)
		w := b.node(mir.OpFAdd, 1, v, v)
		checkDiff(t, b.Graph(), ddg.NewSet(u, v, w), ddg.NewSet(v))
	})
}

// FuzzPrescreenDiff fuzzes the difference census: on generated graphs,
// member sets and removed subsets (bit i of drop removes member i), the
// census derived from the parent's must equal a full census of the
// difference, field for field and verdict for verdict.
func FuzzPrescreenDiff(f *testing.F) {
	f.Add([]byte{}, uint32(1))
	f.Add([]byte{7, 1, 2, 3}, uint32(0b10))
	f.Add([]byte{24, 0, 0, 0, 0, 0, 0, 0, 0}, uint32(0xffff))
	f.Add([]byte{200, 9, 33, 1, 77, 5, 0, 8, 14, 3, 91, 2}, uint32(0x5555))
	f.Add([]byte{16, 255, 128, 64, 32, 16, 8, 4, 2, 1}, uint32(0xfffffffe))
	f.Fuzz(func(t *testing.T, data []byte, drop uint32) {
		g, nodes := genScreenGraph(data)
		var removed []ddg.NodeID
		for i, u := range nodes {
			if drop&(1<<(i%32)) != 0 {
				removed = append(removed, u)
			}
		}
		checkDiff(t, g, nodes, ddg.NewSet(removed...))
	})
}
