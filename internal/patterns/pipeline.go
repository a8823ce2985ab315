package patterns

// Pipeline pattern (extension; paper §9 future work). The two Starbench
// benchmarks the paper excludes — bodytrack and h264dec — follow pipeline
// patterns: a sequence of stages, each processing a stream of items in
// order, where stages carry their own sequential state (a decoder context,
// a filter history). In dataflow terms:
//
//   - stage j is a loop whose iteration i consumes item i and hands its
//     result to iteration i of stage j+1, injectively and in order;
//   - at least one stage has cross-iteration state chains, which is
//     exactly what keeps its iterations from being a map (and the stage
//     pair from being a fused map) — yet the stages can still run
//     concurrently, item-by-item, as a pipeline.
//
// MatchPipeline detects the two-stage case on a pair of loop views; longer
// pipelines arise from repeated detection over consecutive stage pairs.

import "discovery/internal/ddg"

// KindPipeline is the two-stage pipeline extension pattern.
const KindPipeline Kind = 102

func init() {
	extensionKindNames[KindPipeline] = kindName{"pipeline", "pl"}
}

// MatchPipeline reports the pipeline formed by stage view a feeding stage
// view b, or nil. Both views must be loop views of the candidate stages.
func MatchPipeline(g *ddg.Graph, a, b *View) *Pattern {
	n := a.NumGroups()
	if n < 2 || b.NumGroups() != n {
		return nil // stages process the same item stream
	}
	// Stage-uniform labels: every item goes through the same operations.
	for i := 1; i < n; i++ {
		if a.Label(i) != a.Label(0) || b.Label(i) != b.Label(0) {
			return nil
		}
	}
	// At least one stage carries sequential state (otherwise this is a
	// fused-map candidate, handled by the paper's patterns).
	if !hasChainArcs(a) && !hasChainArcs(b) {
		return nil
	}
	// Item handoff: group i of stage a feeds exactly group pi(i) of stage
	// b, injectively and order-preserving; nothing escapes elsewhere.
	union := a.Ambient.Union(b.Ambient)
	bGroupOf := map[ddg.NodeID]int{}
	for j, grp := range b.Groups {
		for _, u := range grp {
			bGroupOf[u] = j
		}
	}
	prev := -1
	used := make([]bool, n)
	for i := 0; i < n; i++ {
		target := -1
		for _, u := range a.Groups[i] {
			for _, w := range g.Succs(u) {
				if a.Ambient.Contains(w) {
					continue // intra-stage flow (state or item internals)
				}
				if !union.Contains(w) {
					return nil // stage output escapes the pipeline
				}
				j := bGroupOf[w]
				if target >= 0 && target != j {
					return nil // one item feeds two downstream items
				}
				target = j
			}
		}
		if target < 0 {
			return nil // stage produced an item nobody consumed
		}
		if used[target] || target <= prev {
			return nil // not injective / not order-preserving
		}
		used[target] = true
		prev = target
	}
	// Every stage-a group has input; the final stage emits results.
	for i := 0; i < n; i++ {
		if !a.ExtIn(i) && a.InDegree(i) == 0 {
			return nil
		}
	}
	anyOut := false
	for j := 0; j < n; j++ {
		if b.ExtOut(j) {
			anyOut = true
		}
	}
	if !anyOut {
		return nil
	}
	if !g.Convex(union, nil) {
		return nil
	}
	// Components: one column per item (its work in both stages).
	comps := make([]ddg.Set, n)
	for i := 0; i < n; i++ {
		comps[i] = a.Groups[i].Union(b.Groups[i])
	}
	return &Pattern{
		Kind:    KindPipeline,
		Comps:   comps,
		NumFull: n,
		MapPart: &Pattern{Kind: KindPipeline, Comps: a.Groups, NumFull: n},
		RedPart: &Pattern{Kind: KindPipeline, Comps: b.Groups, NumFull: n},
	}
}

// hasChainArcs reports whether the view has any cross-group arcs (stage
// state flowing between iterations).
func hasChainArcs(v *View) bool {
	for i := range v.Groups {
		if v.OutDegree(i) > 0 {
			return true
		}
	}
	return false
}
