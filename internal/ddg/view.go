package ddg

// Zero-copy membership overlays. The pattern definitions (§4) are stated
// over one DDG, and every matcher and verifier reads the *Graph
// directly; SubView is the one companion type: a restriction of a graph
// to a node subset, held as a bitset membership mask over the
// shared CSR arrays. It answers "is u a member?" and "what is u's
// position among the members?" and walks member successors, nothing more:
// node attributes and the analyses of algo.go stay on the graph. Node ids
// are preserved (no renumbering, no remap tables) and nothing of the
// adjacency is copied. The mask spans only the words between the first
// and last member, with a popcount prefix per word that answers a member's
// rank (its position in the sorted member set) in O(1), so deriving a
// sub-DDG overlay is O(|nodes| + span/64) rather than O(n + m), and
// per-member scratch state is indexed by rank instead of by binary search
// or hash map. InducedSubgraph remains for simplification, which genuinely
// rebuilds the graph.

import "math/bits"

// Overlay returns the zero-copy restriction of the graph to nodes. The
// node set is retained (not copied); callers must not mutate it afterwards.
// The mask and its rank prefix cover only the 64-id words from the first
// member's to the last member's, so the cost is O(|nodes| + span/64),
// independent of the graph's size.
func (g *Graph) Overlay(nodes Set) *SubView {
	sv := &SubView{base: g, nodes: nodes}
	if len(nodes) == 0 {
		return sv
	}
	sv.lo = nodes[0] >> 6
	words := int(nodes[len(nodes)-1]>>6-sv.lo) + 1
	sv.mask = make([]uint64, words)
	sv.prefix = make([]int32, words)
	for _, u := range nodes {
		sv.mask[u>>6-sv.lo] |= 1 << (u & 63)
	}
	var n int32
	for w, m := range sv.mask {
		sv.prefix[w] = n
		n += int32(bits.OnesCount64(m))
	}
	return sv
}

// SubView is a read-only membership overlay of a base graph: a member node
// set with O(1) membership and rank. Node ids are the base graph's ids;
// member arcs are the base arcs with both endpoints in the member set,
// filtered during iteration rather than stored.
type SubView struct {
	base  *Graph
	nodes Set

	// mask holds one membership bit per id for the words lo..lo+len-1 (word
	// w covers ids 64(lo+w) .. 64(lo+w)+63); prefix[w] counts the members
	// in the words before w, so a member's rank is one popcount away.
	lo     NodeID
	mask   []uint64
	prefix []int32
}

// Base returns the underlying whole graph.
func (sv *SubView) Base() *Graph { return sv.base }

// Nodes returns the member set (shared; do not mutate).
func (sv *SubView) Nodes() Set { return sv.nodes }

// Len returns the number of member nodes.
func (sv *SubView) Len() int { return len(sv.nodes) }

// Contains reports membership in O(1) via the bitset mask; ids outside the
// mask's span are never members.
func (sv *SubView) Contains(u NodeID) bool {
	w := uint(u>>6) - uint(sv.lo) // wraps past len(mask) for ids below the span
	return w < uint(len(sv.mask)) && sv.mask[w]&(1<<(u&63)) != 0
}

// Rank returns u's position in the sorted member set (Nodes()[Rank(u)] ==
// u), or -1 if u is not a member, in O(1): the word's prefix count plus a
// popcount of the member bits below u. It stands in for a binary search
// wherever scratch state is indexed by member position.
func (sv *SubView) Rank(u NodeID) int {
	w := uint(u>>6) - uint(sv.lo)
	if w >= uint(len(sv.mask)) {
		return -1
	}
	bit := uint64(1) << (u & 63)
	m := sv.mask[w]
	if m&bit == 0 {
		return -1
	}
	return int(sv.prefix[w]) + bits.OnesCount64(m&(bit-1))
}

// EachSucc calls fn for every member successor of u, without allocating.
// Iteration stops early when fn returns false.
func (sv *SubView) EachSucc(u NodeID, fn func(v NodeID) bool) {
	for _, v := range sv.base.Succs(u) {
		if sv.Contains(v) && !fn(v) {
			return
		}
	}
}

// roots runs a union-find over the member set along member arcs and
// returns each member's component representative, both indexed by rank:
// an []int32 forest over member positions, with no per-node map.
func (sv *SubView) roots() []int32 {
	parent := make([]int32, len(sv.nodes))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for i, u := range sv.nodes {
		for _, v := range sv.base.Succs(u) {
			if j := sv.Rank(v); j >= 0 {
				if ri, rj := find(int32(i)), find(int32(j)); ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	for i := range parent {
		parent[i] = find(int32(i))
	}
	return parent
}

// components partitions the member set into its weakly connected
// components under member arcs, ordered by smallest member. Each component
// is a capacity-capped window of one shared buffer, filled in ascending id
// order, so no component needs sorting.
func (sv *SubView) components() []Set {
	if len(sv.nodes) == 0 {
		return nil
	}
	root := sv.roots()
	// Number the components by first appearance: scanning in rank order,
	// a component first appears at its smallest member.
	num := make([]int32, len(root)) // root rank -> component number + 1
	var sizes []int
	for _, r := range root {
		if num[r] == 0 {
			sizes = append(sizes, 0)
			num[r] = int32(len(sizes))
		}
		sizes[num[r]-1]++
	}
	out := make([]Set, len(sizes))
	buf := make(Set, len(root))
	off := 0
	for c, n := range sizes {
		out[c] = buf[off : off : off+n]
		off += n
	}
	for i, r := range root {
		c := num[r] - 1
		out[c] = append(out[c], sv.nodes[i])
	}
	return out
}

// joins reports whether every node of nodes (all members) falls in one
// weakly connected component of the member set.
func (sv *SubView) joins(nodes Set) bool {
	root := sv.roots()
	r0 := root[sv.Rank(nodes[0])]
	for _, u := range nodes[1:] {
		if root[sv.Rank(u)] != r0 {
			return false
		}
	}
	return true
}
