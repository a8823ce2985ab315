package patterns

import (
	"fmt"

	"discovery/internal/ddg"
)

// Direct verifiers of the formal definitions in paper §4, without the
// matching relaxations. They are used by the test suite and by the
// finder's debug mode to confirm that the relaxations "do not lead to
// violations of the original pattern definitions" (§5) — the same check
// the paper reports performing on its experiments.

// VerifyPattern checks constraints (1a–1e) for the component sequence:
// disjointness, label isomorphism (exact multiset + internal arc count),
// weak connectivity, and convexity within the whole graph.
func VerifyPattern(g *ddg.Graph, comps []ddg.Set) error {
	if len(comps) == 0 {
		return fmt.Errorf("pattern has no components")
	}
	// (1b) disjoint components.
	for i := range comps {
		for j := i + 1; j < len(comps); j++ {
			if !comps[i].Disjoint(comps[j]) {
				return fmt.Errorf("components %d and %d share nodes", i, j)
			}
		}
	}
	// (1d) weakly connected components, relaxed to connectivity through
	// shared inputs (the transparent-load analogue; in a DDG with load
	// nodes, operations reading the same value connect through the load
	// inside the component).
	for i, c := range comps {
		if !g.WeaklyConnectedWithInputs(c) {
			return fmt.Errorf("component %d is not weakly connected", i)
		}
	}
	// (1e) convexity.
	if !g.Convex(ddg.UnionAll(comps...), nil) {
		return fmt.Errorf("pattern is not convex")
	}
	return nil
}

// verifyIsomorphic checks (1c) for a set of components with the exact
// operation-multiset + internal-arc-count proxy for labeled isomorphism.
func verifyIsomorphic(g *ddg.Graph, comps []ddg.Set) error {
	ref := g.LabelKey(comps[0])
	refArcs := len(g.ArcsBetween(comps[0], comps[0]))
	for i, c := range comps[1:] {
		if g.LabelKey(c) != ref {
			return fmt.Errorf("component %d label %q != %q", i+1, g.LabelKey(c), ref)
		}
		if len(g.ArcsBetween(c, c)) != refArcs {
			return fmt.Errorf("component %d has different internal structure", i+1)
		}
	}
	return nil
}

// VerifyMap checks the map constraints (2a–2d). For conditional maps only
// the first numFull components are required to produce output, and only
// they participate in the isomorphism check.
func VerifyMap(g *ddg.Graph, p *Pattern) error {
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
	// (2b) no arcs between components.
	if i, j, ok := crossArc(g, p.Comps); ok {
		return fmt.Errorf("arc between components %d and %d", i, j)
	}
	// (2c) every component has incoming arcs.
	for i, c := range p.Comps {
		if !g.HasExternalIn(c, nil) {
			return fmt.Errorf("component %d has no input", i)
		}
	}
	// (2d) full components have outgoing arcs.
	for i, c := range full {
		if !g.HasExternalOut(c, nil) {
			return fmt.Errorf("component %d has no output", i)
		}
	}
	return nil
}

// crossArc finds an arc between two distinct components of a disjoint
// component list, reporting the first (i, j) pair in row-major order — the
// pair a scan of ArcsBetween(comps[i], comps[j]) over all i != j would hit
// first — in one pass: the overlay of the union ranks each node, an owner
// table indexed by rank names its component, and each component's member
// successors are walked once.
func crossArc(g *ddg.Graph, comps []ddg.Set) (int, int, bool) {
	sub := g.Overlay(ddg.UnionAll(comps...))
	owner := make([]int32, sub.Len())
	for c, comp := range comps {
		for _, u := range comp {
			owner[sub.Rank(u)] = int32(c)
		}
	}
	for i, comp := range comps {
		j := -1
		for _, u := range comp {
			sub.EachSucc(u, func(v ddg.NodeID) bool {
				if o := int(owner[sub.Rank(v)]); o != i && (j < 0 || o < j) {
					j = o
				}
				return true
			})
		}
		if j >= 0 {
			return i, j, true
		}
	}
	return 0, 0, false
}

// VerifyLinearReduction checks the linear reduction constraints (3a–3f).
func VerifyLinearReduction(g *ddg.Graph, p *Pattern) error {
	if p.Kind != KindLinearReduction {
		return fmt.Errorf("not a linear reduction: %v", p.Kind)
	}
	return verifyChain(g, p.Comps)
}

func verifyChain(g *ddg.Graph, comps []ddg.Set) error {
	if err := VerifyPattern(g, comps); err != nil {
		return err
	}
	if err := verifyIsomorphic(g, comps); err != nil {
		return err
	}
	n := len(comps)
	if n < 2 {
		return fmt.Errorf("reduction needs at least two components")
	}
	// (3b) associativity under-approximation: single associative node.
	for i, c := range comps {
		if _, ok := g.AllAssociative(c); !ok || len(c) != 1 {
			return fmt.Errorf("component %d is not a single associative operation", i)
		}
	}
	// (3c) chain reachability.
	for i := 0; i+1 < n; i++ {
		for _, u := range comps[i] {
			for _, v := range comps[i+1] {
				if !g.Reaches(u, v) {
					return fmt.Errorf("component %d does not reach component %d", i, i+1)
				}
			}
		}
	}
	// (3d) no arcs between non-consecutive components.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if absInt(i-j) > 1 && len(g.ArcsBetween(comps[i], comps[j])) > 0 {
				return fmt.Errorf("arc between non-consecutive components %d and %d", i, j)
			}
		}
	}
	// (3e) inputs.
	for i, c := range comps {
		if !g.HasExternalIn(c, nil) {
			return fmt.Errorf("component %d has no input", i)
		}
	}
	// (3f) final output.
	if !g.HasExternalOut(comps[n-1], nil) {
		return fmt.Errorf("last component has no output")
	}
	return nil
}

// VerifyTiledReduction checks the tiled reduction constraints (4a–4e).
func VerifyTiledReduction(g *ddg.Graph, p *Pattern) error {
	if p.Kind != KindTiledReduction {
		return fmt.Errorf("not a tiled reduction: %v", p.Kind)
	}
	if len(p.Partials) < 2 {
		return fmt.Errorf("tiled reduction needs at least two partial reductions")
	}
	if len(p.Final) != len(p.Partials) {
		return fmt.Errorf("final reduction has %d components for %d partials",
			len(p.Final), len(p.Partials))
	}
	// (4a) each partial is a linear reduction of equal length. Partial
	// chains of length 1 are degenerate linear reductions; check chain
	// constraints only for length ≥ 2.
	plen := len(p.Partials[0])
	var allComps []ddg.Set
	for k, chain := range p.Partials {
		if len(chain) != plen {
			return fmt.Errorf("partial %d has length %d, want %d", k, len(chain), plen)
		}
		for i, c := range chain {
			if _, ok := g.AllAssociative(c); !ok || len(c) != 1 {
				return fmt.Errorf("partial %d component %d is not a single associative op", k, i)
			}
			if i > 0 && len(g.ArcsBetween(chain[i-1], c)) == 0 {
				return fmt.Errorf("partial %d chain broken at %d", k, i)
			}
		}
		allComps = append(allComps, chain...)
	}
	// (4b) the final reduction is a linear reduction.
	for i, c := range p.Final {
		if _, ok := g.AllAssociative(c); !ok || len(c) != 1 {
			return fmt.Errorf("final component %d is not a single associative op", i)
		}
		if i > 0 && len(g.ArcsBetween(p.Final[i-1], c)) == 0 {
			return fmt.Errorf("final chain broken at %d", i)
		}
	}
	allComps = append(allComps, p.Final...)
	// (4c) all components isomorphic.
	if err := verifyIsomorphic(g, allComps); err != nil {
		return err
	}
	// (4d) each partial's last component reaches its final component.
	for k, chain := range p.Partials {
		last := chain[len(chain)-1]
		for _, u := range last {
			for _, v := range p.Final[k] {
				if !g.Reaches(u, v) {
					return fmt.Errorf("partial %d does not reach final component %d", k, k)
				}
			}
		}
	}
	// (4e) no other arcs between partials and finals.
	for k, chain := range p.Partials {
		for i, c := range chain {
			isLast := i == len(chain)-1
			for fj, f := range p.Final {
				arcs := len(g.ArcsBetween(c, f))
				if arcs > 0 && !(isLast && fj == k) {
					return fmt.Errorf("stray arc from partial %d[%d] to final %d", k, i, fj)
				}
			}
		}
	}
	// (1b)/(1e) over the whole structure.
	return VerifyPattern(g, allComps)
}

// VerifyMapReduction checks the §4.4 interface between the map and
// reduction constituents of a (linear or tiled) map-reduction.
func VerifyMapReduction(g *ddg.Graph, p *Pattern) error {
	if p.Kind != KindLinearMapReduction && p.Kind != KindTiledMapReduction {
		return fmt.Errorf("not a map-reduction: %v", p.Kind)
	}
	if p.MapPart == nil || p.RedPart == nil {
		return fmt.Errorf("map-reduction missing constituents")
	}
	if err := VerifyMap(g, p.MapPart); err != nil {
		return fmt.Errorf("map constituent: %w", err)
	}
	var consumers []ddg.Set
	switch p.Kind {
	case KindLinearMapReduction:
		if err := VerifyLinearReduction(g, p.RedPart); err != nil {
			return fmt.Errorf("reduction constituent: %w", err)
		}
		consumers = p.RedPart.Comps
	case KindTiledMapReduction:
		if err := VerifyTiledReduction(g, p.RedPart); err != nil {
			return fmt.Errorf("reduction constituent: %w", err)
		}
		for _, chain := range p.RedPart.Partials {
			consumers = append(consumers, chain...)
		}
	}
	used := make([]bool, len(consumers))
	for mi, comp := range p.MapPart.Comps {
		ci, ok := feedsExactlyOne(g, comp, consumers)
		if !ok || used[ci] {
			return fmt.Errorf("map component %d does not feed exactly one reduction component", mi)
		}
		used[ci] = true
	}
	return nil
}

// VerifyTreeReduction checks the extension tree-reduction shape: single
// associative components forming an in-tree whose leaves take elements
// and whose root produces the result.
func VerifyTreeReduction(g *ddg.Graph, p *Pattern) error {
	if p.Kind != KindTreeReduction {
		return fmt.Errorf("not a tree reduction: %v", p.Kind)
	}
	if err := VerifyPattern(g, p.Comps); err != nil {
		return err
	}
	if err := verifyIsomorphic(g, p.Comps); err != nil {
		return err
	}
	all := ddg.UnionAll(p.Comps...)
	roots := 0
	for _, c := range p.Comps {
		if _, ok := g.AllAssociative(c); !ok || len(c) != 1 {
			return fmt.Errorf("component is not a single associative operation")
		}
		uses := 0
		for _, u := range c {
			for _, s := range g.Succs(u) {
				if all.Contains(s) && !c.Contains(s) {
					uses++
				}
			}
		}
		if uses > 1 {
			return fmt.Errorf("component value used more than once inside the tree")
		}
		if uses == 0 {
			roots++
			if !g.HasExternalOut(c, nil) {
				return fmt.Errorf("root has no output")
			}
		}
	}
	if roots != 1 {
		return fmt.Errorf("tree has %d roots, want 1", roots)
	}
	return nil
}

// Verify dispatches to the appropriate definitional verifier.
func Verify(g *ddg.Graph, p *Pattern) error {
	switch p.Kind {
	case KindMap, KindConditionalMap, KindFusedMap, KindStencil:
		return VerifyMap(g, p)
	case KindLinearReduction:
		return VerifyLinearReduction(g, p)
	case KindTiledReduction:
		return VerifyTiledReduction(g, p)
	case KindLinearMapReduction, KindTiledMapReduction:
		return VerifyMapReduction(g, p)
	case KindTreeReduction:
		return VerifyTreeReduction(g, p)
	case KindPipeline:
		// Item columns: disjoint, connected (stage handoff arcs), convex.
		return VerifyPattern(g, p.Comps)
	}
	return fmt.Errorf("unknown pattern kind %v", p.Kind)
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
