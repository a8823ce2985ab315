package ddg

// Loop-iteration indexes: the materialized form of the paper's DDG
// Compaction phase (§5), derived once per graph instead of once per
// sub-DDG view.
//
// A LoopIterIndex maps every node to the dense ordinal of its dynamic
// iteration of one static loop — the group the compacted view of any
// sub-DDG derived from that loop places it in. Graph.LoopIterIndex derives
// the indexes of all loops from the nodes' scope chains in one pass on
// first use and memoizes them, so patterns.LoopView and the prescreen
// census are lookups over precomputed ordinals: no scope-chain walks, no
// per-view key maps. This file is the only code that decides which nodes
// share an iteration; CheckInvariants audits its answer against
// Scope.FrameFor node by node.

import (
	"fmt"
	"sort"
	"sync"

	"discovery/internal/analysis"
	"discovery/internal/mir"
)

// LoopIterIndex is the per-loop compaction index of one graph: Keys lists
// the loop's dynamic iterations sorted ascending by (invocation,
// iteration) — the exact group order compacted views present — and ord
// maps each node to its key's position, or -1 for nodes that did not
// execute inside the loop.
type LoopIterIndex struct {
	Loop mir.LoopID
	Keys []IterationKey
	ord  []int32
}

// iterIndexMemo caches a graph's derived indexes (see iterIndexes);
// immutable once computed.
type iterIndexMemo struct {
	once   sync.Once
	byLoop map[mir.LoopID]*LoopIterIndex
}

// OrdinalOf returns the dense iteration ordinal of node u, or ok=false if
// u did not execute inside the loop. A nil index (a loop no node of the
// graph executed in) answers ok=false for every node.
func (ix *LoopIterIndex) OrdinalOf(u NodeID) (int32, bool) {
	if ix == nil || int(u) >= len(ix.ord) || ix.ord[u] < 0 {
		return 0, false
	}
	return ix.ord[u], true
}

// NumGroups returns the number of dynamic iterations the index covers.
func (ix *LoopIterIndex) NumGroups() int {
	if ix == nil {
		return 0
	}
	return len(ix.Keys)
}

// LoopIterIndex returns the compaction index for the given static loop,
// or nil when no node of the graph executed inside it. The first call
// derives the indexes of every loop at once (deriveIterIndexes); later
// calls, from any goroutine, read the memo.
func (g *Graph) LoopIterIndex(loop mir.LoopID) *LoopIterIndex {
	return g.iterIndexes()[loop]
}

func (g *Graph) iterIndexes() map[mir.LoopID]*LoopIterIndex {
	g.iters.once.Do(func() { g.iters.byLoop = deriveIterIndexes(g) })
	return g.iters.byLoop
}

// deriveIterIndexes computes the iteration index of every static loop
// in one pass over the nodes. A node belongs to the iteration that its
// innermost frame for the loop names — Scope.FrameFor's answer — so when
// recursion re-enters a static loop the node is charged to the deepest
// invocation. Ordinals are renumbered at the end so they ascend by
// (invocation, iteration), the group order compacted views present.
func deriveIterIndexes(g *Graph) map[mir.LoopID]*LoopIterIndex {
	type dynKey struct {
		inv  uint64
		iter int64
	}
	type loopAcc struct {
		ix   *LoopIterIndex
		slot map[dynKey]int32 // key -> ordinal in first-seen order
	}
	type hit struct {
		acc *loopAcc
		o   int32
	}
	n := g.NumNodes()
	accs := map[mir.LoopID]*loopAcc{}
	// Consecutive nodes mostly share one *Scope (scopes are persistent:
	// the pointer changes only at loop entry, iteration step, and exit),
	// so the frames resolved for the previous node's scope are reused.
	var last *Scope
	var hits []hit
	for u := 0; u < n; u++ {
		if s := g.scope[u]; s != last {
			last, hits = s, hits[:0]
		frames:
			for f := s; f != nil; f = f.Parent {
				acc := accs[f.Loop]
				if acc == nil {
					ord := make([]int32, n)
					for i := range ord {
						ord[i] = -1
					}
					acc = &loopAcc{ix: &LoopIterIndex{Loop: f.Loop, ord: ord}, slot: map[dynKey]int32{}}
					accs[f.Loop] = acc
				}
				for _, h := range hits {
					if h.acc == acc {
						continue frames // an inner frame of this loop already won
					}
				}
				k := dynKey{f.Invocation, f.Iter}
				o, ok := acc.slot[k]
				if !ok {
					o = int32(len(acc.ix.Keys))
					acc.slot[k] = o
					acc.ix.Keys = append(acc.ix.Keys, IterationKey{Loop: f.Loop, Invocation: f.Invocation, Iter: f.Iter})
				}
				hits = append(hits, hit{acc, o})
			}
		}
		for _, h := range hits {
			h.acc.ix.ord[u] = h.o
		}
	}

	out := make(map[mir.LoopID]*LoopIterIndex, len(accs))
	for loop, acc := range accs {
		ix := acc.ix
		order := make([]int32, len(ix.Keys))
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := ix.Keys[order[i]], ix.Keys[order[j]]
			if a.Invocation != b.Invocation {
				return a.Invocation < b.Invocation
			}
			return a.Iter < b.Iter
		})
		rank := make([]int32, len(order))
		sorted := make([]IterationKey, len(order))
		for r, o := range order {
			rank[o] = int32(r)
			sorted[r] = ix.Keys[o]
		}
		ix.Keys = sorted
		for u, o := range ix.ord {
			if o >= 0 {
				ix.ord[u] = rank[o]
			}
		}
		out[loop] = ix
	}
	return out
}

// checkIterIndexes verifies the derived indexes against the ground truth
// the scope chains encode: every loop on any chain has an index, ord
// agrees with IterationOf node by node, the ordinal's key is the node's
// key, and the key table is sorted. Part of CheckInvariants — an index
// that drifted from the chains would silently change compacted views, the
// worst kind of wrong.
func (g *Graph) checkIterIndexes() error {
	fail := func(format string, args ...any) error {
		return analysis.Errorf(analysis.StageFinalize, analysis.InvariantViolation, format, args...)
	}
	byLoop := g.iterIndexes()
	for i := 0; i < g.NumNodes(); i++ {
		for f := g.scope[i]; f != nil; f = f.Parent {
			if byLoop[f.Loop] == nil {
				return fail("ddg: node %d executes in loop %d, which has no iteration index", i, f.Loop)
			}
		}
	}
	loops := make([]mir.LoopID, 0, len(byLoop))
	for loop := range byLoop {
		loops = append(loops, loop)
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i] < loops[j] })
	for _, loop := range loops {
		ix := byLoop[loop]
		if ix.Loop != loop {
			return fail("ddg: iteration index filed under loop %d names loop %d", loop, ix.Loop)
		}
		if len(ix.ord) != g.NumNodes() {
			return fail("ddg: iteration index for loop %d covers %d nodes, graph has %d",
				loop, len(ix.ord), g.NumNodes())
		}
		for i := 1; i < len(ix.Keys); i++ {
			a, b := ix.Keys[i-1], ix.Keys[i]
			if a.Invocation > b.Invocation || (a.Invocation == b.Invocation && a.Iter >= b.Iter) {
				return fail("ddg: iteration index for loop %d has unsorted keys at %d", loop, i)
			}
		}
		for i := 0; i < g.NumNodes(); i++ {
			u := NodeID(i)
			want, inLoop := g.IterationOf(u, loop)
			o, ok := ix.OrdinalOf(u)
			if ok != inLoop {
				return fail("ddg: iteration index for loop %d disagrees with node %d's scope chain (indexed=%t, in loop=%t)",
					loop, u, ok, inLoop)
			}
			if ok && (int(o) >= len(ix.Keys) || ix.Keys[o] != want) {
				return fail("ddg: iteration index for loop %d maps node %d to ordinal %d, scope chain says %v",
					loop, u, o, want)
			}
		}
	}
	return nil
}

// String summarizes the index.
func (ix *LoopIterIndex) String() string {
	return fmt.Sprintf("iterindex(L%d, %d groups, %d nodes)", ix.Loop, len(ix.Keys), len(ix.ord))
}
