package patterns

import (
	"discovery/internal/ddg"
)

// Compound pattern matching: fused maps (§4.2) and linear/tiled
// map-reductions (§4.4). These matchers run on fused sub-DDGs, combining
// two patterns already matched on the constituent sub-DDGs — the paper's
// fusion phase requires exactly that ("where compatible patterns ... have
// been matched"). The models enforce a consistent interface between the
// constituents: each producer component's output is taken by exactly one
// consumer component.

// succsOutside returns the distinct successors of comp's nodes that are
// not in comp itself.
func succsOutside(g *ddg.Graph, comp ddg.Set) ddg.Set {
	var out []ddg.NodeID
	for _, u := range comp {
		for _, v := range g.Succs(u) {
			if !comp.Contains(v) {
				out = append(out, v)
			}
		}
	}
	return ddg.NewSet(out...)
}

// feedsExactlyOne returns the index of the unique consumer component that
// the producer component feeds, requiring every outgoing arc of the
// producer (to anywhere in the graph) to land in that consumer. This is
// the paper's "output ... only taken as input by its corresponding
// component" interface constraint. found=false if the producer feeds
// nothing, several consumers, or anything outside the consumers.
func feedsExactlyOne(g *ddg.Graph, producer ddg.Set, consumers []ddg.Set) (int, bool) {
	succs := succsOutside(g, producer)
	if len(succs) == 0 {
		return 0, false
	}
	target := -1
	for _, s := range succs {
		found := false
		for k, c := range consumers {
			if c.Contains(s) {
				if target >= 0 && target != k {
					return 0, false // feeds two consumers
				}
				target = k
				found = true
				break
			}
		}
		if !found {
			return 0, false // output escapes the compound pattern
		}
	}
	return target, true
}

// MatchFusedMap fuses two maps a and b (a flowing into b) into a single
// (possibly conditional) fused map, or returns nil. Following the paper's
// heuristics, the fusion of loops with mismatching iteration spaces is
// rejected (the ray-rot limitation of §6.1): the two maps must have the
// same number of components, and each output-producing a-component must
// feed exactly one b-component, injectively.
func MatchFusedMap(g *ddg.Graph, a, b *Pattern) *Pattern {
	if !a.Kind.IsMapKind() || !b.Kind.IsMapKind() {
		return nil
	}
	if len(a.Comps) != len(b.Comps) {
		return nil // mismatching iteration spaces
	}
	used := make([]bool, len(b.Comps))
	type pairing struct{ ai, bi int }
	var pairs []pairing
	for ai, comp := range a.Comps {
		if ai >= a.numFull() {
			continue // conditional component without output
		}
		bi, ok := feedsExactlyOne(g, comp, b.Comps)
		if !ok {
			return nil
		}
		if used[bi] {
			return nil // not injective
		}
		used[bi] = true
		pairs = append(pairs, pairing{ai, bi})
	}
	if len(pairs) == 0 {
		return nil
	}
	// Fused components: paired unions first, then unpaired b components
	// (they still produce output from external input), then a's
	// conditional leftovers (no output).
	var full, partial []ddg.Set
	for _, pr := range pairs {
		full = append(full, a.Comps[pr.ai].Union(b.Comps[pr.bi]))
	}
	for bi, comp := range b.Comps {
		if !used[bi] {
			if bi < b.numFull() {
				full = append(full, comp)
			} else {
				partial = append(partial, comp)
			}
		}
	}
	for ai := a.numFull(); ai < len(a.Comps); ai++ {
		partial = append(partial, a.Comps[ai])
	}
	// Relaxed isomorphism: partial components must execute a subset of the
	// operations of the paired components.
	if len(full) == 0 {
		return nil
	}
	ref := full[0]
	for _, c := range partial {
		if !g.OpSetSubset(c, ref) {
			return nil
		}
	}
	comps := append(append([]ddg.Set{}, full...), partial...)
	return &Pattern{
		Kind:    KindFusedMap,
		Comps:   comps,
		NumFull: len(full),
		MapPart: a,
		RedPart: b, // second stage stored in RedPart for provenance
	}
}

// numFull returns the number of output-producing components (all of them
// for plain maps).
func (p *Pattern) numFull() int {
	if p.Kind == KindConditionalMap || p.Kind == KindFusedMap {
		return p.NumFull
	}
	return len(p.Comps)
}

// MatchLinearMapReduction fuses a map m and a linear reduction r into a
// linear map-reduction (paper §4.4): each map component produces an output
// taken only by its corresponding reduction component.
func MatchLinearMapReduction(g *ddg.Graph, m, r *Pattern) *Pattern {
	if !m.Kind.IsMapKind() || r.Kind != KindLinearReduction {
		return nil
	}
	if m.numFull() != len(m.Comps) {
		return nil // every element must reach the reduction
	}
	if len(m.Comps) != len(r.Comps) {
		return nil
	}
	used := make([]bool, len(r.Comps))
	order := make([]int, len(m.Comps))
	for mi, comp := range m.Comps {
		ri, ok := feedsExactlyOne(g, comp, r.Comps)
		if !ok || used[ri] {
			return nil
		}
		used[ri] = true
		order[mi] = ri
	}
	return &Pattern{Kind: KindLinearMapReduction, MapPart: m, RedPart: r, Op: r.Op}
}

// MatchTiledMapReduction fuses a map m and a tiled reduction tr into a
// tiled map-reduction (paper §4.4): each map component's output is taken
// only by its corresponding partial reduction component.
func MatchTiledMapReduction(g *ddg.Graph, m, tr *Pattern) *Pattern {
	if !m.Kind.IsMapKind() || tr.Kind != KindTiledReduction {
		return nil
	}
	if m.numFull() != len(m.Comps) {
		return nil
	}
	var partials []ddg.Set
	for _, chain := range tr.Partials {
		partials = append(partials, chain...)
	}
	if len(m.Comps) != len(partials) {
		return nil
	}
	used := make([]bool, len(partials))
	for _, comp := range m.Comps {
		pi, ok := feedsExactlyOne(g, comp, partials)
		if !ok || used[pi] {
			return nil
		}
		used[pi] = true
	}
	return &Pattern{Kind: KindTiledMapReduction, MapPart: m, RedPart: tr, Op: tr.Op}
}
