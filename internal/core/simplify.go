// Package core implements the iterative pattern finder of paper §5
// (Figure 4, Algorithm 1): DDG simplification, decomposition into loop and
// associative-component sub-DDGs, compaction, parallel constraint-based
// matching, subtraction, fusion, and merging, iterated to a fixpoint.
package core

import (
	"slices"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// Simplify removes auxiliary computation from the DDG: memory address
// calculations, and arithmetic whose results flow only into address
// calculations (the analogue of the paper's generalized iterator
// recognition removing data-structure traversals). It returns the
// simplified graph.
//
// Note the side effect the paper documents as a limitation (§6.1): a
// computation whose output is used exclusively in addressing — such as the
// cluster index map in kmeans — loses its outgoing arcs, which later
// precludes matching it as a map (constraint 2d).
//
// Whether a node is removed depends only on its successors, and every
// successor has a higher id (the topological-id invariant), so one pass in
// descending id order settles each node after all of its uses.
func Simplify(g *ddg.Graph) *ddg.Graph {
	n := g.NumNodes()
	removed := make([]bool, n)
	keep := make(ddg.Set, 0, n)
	for i := n - 1; i >= 0; i-- {
		u := ddg.NodeID(i)
		switch g.Op(u).Class() {
		case mir.ClassAddr:
			// Seed: all address-calculation nodes.
			removed[i] = true
		case mir.ClassArith, mir.ClassConv:
			// Computation and conversion nodes go when all of their uses
			// went. Nodes with no uses at all stay: they are sinks of real
			// computation (e.g. comparisons feeding branches), not
			// traversals.
			succs := g.Succs(u)
			removed[i] = len(succs) > 0
			for _, v := range succs {
				if !removed[v] {
					removed[i] = false
					break
				}
			}
		}
		if !removed[i] {
			keep = append(keep, u)
		}
	}
	slices.Reverse(keep)
	gs, _ := g.InducedSubgraph(keep)
	return gs
}
