package patterns

import (
	"math"
	"slices"
	"sort"
	"sync"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// View is the matching substrate for one sub-DDG: a partition of the
// sub-DDG's nodes into candidate component groups, with group-level arcs,
// labels, and boundary information.
//
// Loop-derived sub-DDGs are viewed compacted — one group per dynamic loop
// iteration, which is the paper's DDG Compaction phase (§5) — so that a
// work-split Pthreads loop and its sequential counterpart present identical
// views. Associative-component sub-DDGs are viewed node-per-node.
//
// G is the whole DDG, the one graph type every matcher reads; the
// sub-DDG is only its node set, Ambient. Only the grouping is built
// eagerly. Group arcs, boundary flags, and labels derive lazily the first
// time a matcher asks for them, from G's adjacency filtered through a
// zero-copy membership overlay of Ambient (ddg.SubView: the one NewView
// was handed, or one built on first use) — a view that is answered from
// the finder's verdict cache, or rejected by the group-count gate, never
// touches the graph's adjacency at all. Nothing of the graph is copied
// either way.
type View struct {
	G       *ddg.Graph
	Ambient ddg.Set   // the sub-DDG's nodes
	Groups  []ddg.Set // view node -> original nodes

	loop     mir.LoopID  // grouping provenance (0 = node-per-node)
	hash     ddg.Hash128 // content hash: ViewKey(Ambient, loop), lazy
	hashOnce sync.Once

	sub     *ddg.SubView // overlay of Ambient over G: given, or built lazily
	subOnce sync.Once

	// Lazily built group structure (ensure). Guarded by ensOnce: matchers
	// for different kinds may share one view across workers.
	ensOnce sync.Once
	arcs    [][]int // group adjacency (original arcs between groups), sorted
	indeg   []int   // distinct-group in-degree per group
	extIn   []bool  // group receives an arc from outside the sub-DDG
	extOut  []bool  // group sends an arc outside the sub-DDG

	// Lazily computed labels, per group ("" = not yet computed; group
	// labels are never empty since groups are non-empty). mu guards the
	// label/op-set memos and the reachability closure.
	mu     sync.Mutex
	labels []string
	opsets []string

	reach [][]bool // group-level reachability closure (lazy, under mu)
}

// hashSeedView tags view hashes (see ViewKey).
const hashSeedView = 0x71e3d5a9c4b8f017

// ViewKey returns the 128-bit content hash identifying the view of a node
// set under a grouping provenance: loop != 0 names the compacted loop view
// (one group per dynamic (invocation, iteration) of that static loop);
// loop == 0 names the node-per-node view. Within one graph the grouping —
// and hence every match verdict — is a pure function of (nodes, loop), so
// this pair is exactly what must be hashed: the same node set viewed under
// a different loop, or uncompacted, partitions differently and may match
// differently, while provenances that share a grouping (an associative
// component and a whole-graph sub-DDG over the same nodes are both
// node-per-node) may safely share cached verdicts.
func ViewKey(nodes ddg.Set, loop mir.LoopID) ddg.Hash128 {
	return ViewKeyOf(nodes.Hash(), loop)
}

// ViewKeyOf is ViewKey for a node set whose Set.Hash the caller already
// holds, so a sub-DDG that also keys its pool entry by that hash computes
// it once. ViewKeyOf(nodes.Hash(), loop) == ViewKey(nodes, loop).
func ViewKeyOf(nodesHash ddg.Hash128, loop mir.LoopID) ddg.Hash128 {
	h := ddg.NewHasher(hashSeedView)
	h.Word(uint64(loop))
	h.Hash(nodesHash)
	return h.Sum()
}

// LoopView builds the compacted view of a loop-derived sub-DDG: one group
// per (invocation, iteration) of the given static loop. Nodes lacking a
// frame for the loop are grouped separately per node (they are rare:
// boundary computation hoisted around the loop).
//
// The grouping is one sort over the graph's loop-iteration index
// (ddg.LoopIterIndex): each node packs into ordinal<<32 | id, loose nodes
// under an ordinal above every real one, and the sorted keys split into
// groups at ordinal changes. Groups therefore come out in ascending
// ordinal order — the index's global (invocation, iteration) order, which
// any node subset preserves — each sorted by id, then the loose nodes
// one per group in input order.
func LoopView(g *ddg.Graph, nodes ddg.Set, loop mir.LoopID) *View {
	return &View{G: g, Ambient: nodes, Groups: loopGroups(g.LoopIterIndex(loop), nodes), loop: loop}
}

// looseOrdinal sorts nodes without an iteration of the loop after every
// real ordinal (those are non-negative int32s); each is its own group.
const looseOrdinal = math.MaxUint32

func loopGroups(ix *ddg.LoopIterIndex, nodes ddg.Set) []ddg.Set {
	keys := make([]uint64, len(nodes))
	for i, u := range nodes {
		o := uint64(looseOrdinal)
		if ord, ok := ix.OrdinalOf(u); ok {
			o = uint64(ord)
		}
		keys[i] = o<<32 | uint64(u)
	}
	slices.Sort(keys)
	// One backing array; each group is a capacity-capped window of it.
	buf := make(ddg.Set, len(keys))
	var groups []ddg.Set
	start := 0
	for k, key := range keys {
		buf[k] = ddg.NodeID(key)
		if o := key >> 32; k+1 == len(keys) || keys[k+1]>>32 != o || o == looseOrdinal {
			groups = append(groups, buf[start:k+1:k+1])
			start = k + 1
		}
	}
	return groups
}

// NodeView builds the node-per-node view of a sub-DDG (associative
// components).
func NodeView(g *ddg.Graph, nodes ddg.Set) *View {
	buf := nodes.Clone()
	groups := make([]ddg.Set, len(buf))
	for i := range buf {
		groups[i] = buf[i : i+1 : i+1]
	}
	return &View{G: g, Ambient: nodes, Groups: groups}
}

// NewView builds the view of the overlay's member set over its base graph
// under the grouping provenance loop — LoopView for loop != 0, NodeView
// otherwise — with sub as the view's overlay, so a caller that built it
// for the prescreen census does not build it twice.
func NewView(sub *ddg.SubView, loop mir.LoopID) *View {
	var v *View
	if loop != 0 {
		v = LoopView(sub.Base(), sub.Nodes(), loop)
	} else {
		v = NodeView(sub.Base(), sub.Nodes())
	}
	v.sub = sub
	return v
}

// Hash returns the view's content hash (see ViewKey): equal hashes within
// one graph mean identical groupings and identical match outcomes.
// Computed on first use; the finder keys its caches by the sub-DDG's own
// memoized hash and never needs it.
func (v *View) Hash() ddg.Hash128 {
	v.hashOnce.Do(func() { v.hash = ViewKey(v.Ambient, v.loop) })
	return v.hash
}

// Sub returns the zero-copy overlay of the view's ambient set: the one
// NewView was given, or one built on first use.
func (v *View) Sub() *ddg.SubView {
	v.subOnce.Do(func() {
		if v.sub == nil {
			v.sub = v.G.Overlay(v.Ambient)
		}
	})
	return v.sub
}

// ensure derives the group-level arc structure and boundary flags from the
// overlay. Membership tests ride the overlay's bitset; the group of a
// member node is found through its O(1) overlay rank, so the scratch state
// is O(|ambient|), never O(|graph|).
func (v *View) ensure() {
	v.ensOnce.Do(v.build)
}

func (v *View) build() {
	sub := v.Sub()
	n := len(v.Groups)
	v.arcs = make([][]int, n)
	v.indeg = make([]int, n)
	v.extIn = make([]bool, n)
	v.extOut = make([]bool, n)
	// Rank-aligned group index: gidx[sub.Rank(u)] = group of member u.
	gidx := make([]int32, sub.Len())
	for i, grp := range v.Groups {
		for _, u := range grp {
			gidx[sub.Rank(u)] = int32(i)
		}
	}
	for i, grp := range v.Groups {
		var out []int
		for _, u := range grp {
			for _, w := range v.G.Succs(u) {
				r := sub.Rank(w)
				if r < 0 {
					v.extOut[i] = true
					continue
				}
				if j := int(gidx[r]); j != i {
					out = append(out, j)
				}
			}
			if !v.extIn[i] {
				for _, w := range v.G.Preds(u) {
					if !sub.Contains(w) {
						v.extIn[i] = true
						break
					}
				}
			}
		}
		sort.Ints(out)
		dedup := out[:0]
		for k, j := range out {
			if k > 0 && j == out[k-1] {
				continue
			}
			dedup = append(dedup, j)
		}
		v.arcs[i] = dedup
		for _, j := range dedup {
			v.indeg[j]++
		}
	}
}

// NumGroups returns the number of view groups.
func (v *View) NumGroups() int { return len(v.Groups) }

// Arcs returns the sorted distinct groups that group i has arcs to. The
// returned slice is shared; callers must not mutate it.
func (v *View) Arcs(i int) []int {
	v.ensure()
	return v.arcs[i]
}

// ExtIn reports whether group i receives an arc from outside the sub-DDG.
func (v *View) ExtIn(i int) bool {
	v.ensure()
	return v.extIn[i]
}

// ExtOut reports whether group i sends an arc outside the sub-DDG.
func (v *View) ExtOut(i int) bool {
	v.ensure()
	return v.extOut[i]
}

// Label returns the operation-multiset label of group i (relaxed 1c),
// computed on first use per group.
func (v *View) Label(i int) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.labels == nil {
		v.labels = make([]string, len(v.Groups))
	}
	if v.labels[i] == "" {
		v.labels[i] = v.G.LabelKey(v.Groups[i])
	}
	return v.labels[i]
}

// OpSet returns the operation-set label of group i (conditional variants),
// computed on first use per group.
func (v *View) OpSet(i int) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.opsets == nil {
		v.opsets = make([]string, len(v.Groups))
	}
	if v.opsets[i] == "" {
		v.opsets[i] = v.G.OpSetKey(v.Groups[i])
	}
	return v.opsets[i]
}

// HasArc reports a group-level arc i -> j.
func (v *View) HasArc(i, j int) bool {
	arcs := v.Arcs(i)
	k := sort.SearchInts(arcs, j)
	return k < len(arcs) && arcs[k] == j
}

// Reaches reports group-level reachability i ->* j (strictly forward,
// i != j implied; Reaches(i,i) is true only on a cycle, which cannot occur
// in a DAG view).
func (v *View) Reaches(i, j int) bool {
	v.mu.Lock()
	if v.reach == nil {
		v.computeReach()
	}
	r := v.reach[i][j]
	v.mu.Unlock()
	return r
}

func (v *View) computeReach() {
	v.ensure()
	n := len(v.Groups)
	v.reach = make([][]bool, n)
	// Reverse-topological accumulation would be fastest; a BFS per group is
	// ample for view sizes (at most a few hundred groups).
	for i := 0; i < n; i++ {
		v.reach[i] = make([]bool, n)
		stack := append([]int(nil), v.arcs[i]...)
		for len(stack) > 0 {
			j := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v.reach[i][j] {
				continue
			}
			v.reach[i][j] = true
			stack = append(stack, v.arcs[j]...)
		}
	}
}

// InDegree returns the number of distinct groups with arcs into group i.
func (v *View) InDegree(i int) int {
	v.ensure()
	return v.indeg[i]
}

// OutDegree returns the number of distinct groups that group i has arcs to.
func (v *View) OutDegree(i int) int { return len(v.Arcs(i)) }

// GroupsUnion returns the original nodes of the given groups.
func (v *View) GroupsUnion(idx ...int) ddg.Set {
	sets := make([]ddg.Set, len(idx))
	for k, i := range idx {
		sets[k] = v.Groups[i]
	}
	return ddg.UnionAll(sets...)
}
