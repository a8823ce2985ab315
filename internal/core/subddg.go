package core

import (
	"fmt"
	"sort"
	"sync"

	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/patterns"
)

// SubDDG is one entry of the pattern finder's pool: a node set over the
// simplified DDG together with the provenance that determines how it is
// viewed during matching.
type SubDDG struct {
	Nodes ddg.Set

	// Loop is the static loop this sub-DDG derives from; loop-derived
	// sub-DDGs are viewed compacted (one group per dynamic iteration).
	// Zero means not loop-derived.
	Loop mir.LoopID

	// Assoc marks associative-component sub-DDGs, viewed node-per-node.
	Assoc bool

	// FusedA and FusedB are the constituents of fused sub-DDGs; matching a
	// fused sub-DDG combines patterns already matched on the constituents.
	FusedA, FusedB *SubDDG

	// Matched patterns on this sub-DDG, filled by the match phase.
	Matched []*patterns.Pattern

	// parent and removed record a subtract difference (Nodes =
	// parent.Nodes \ removed) whose census can be derived from the
	// parent's; prep consumes and clears them. pre is the sub-DDG's own
	// census, kept only while it is unmatched and so can still be a
	// subtract parent.
	parent  *SubDDG
	removed ddg.Set
	pre     *patterns.Prescreen

	nhash    ddg.Hash128 // Nodes.Hash(), memoized (see setHash)
	key      ddg.Hash128
	vhash    ddg.Hash128
	viewOnce sync.Once
	view     *patterns.View
}

// Domain tags for the finder's hash keys (see ddg.NewHasher).
const (
	hashSeedPoolKey  = 0x90a7b3c5d1e2f407
	hashSeedFusedKey = 0x2c4e6a8b0d1f3355
)

// Key canonically identifies the sub-DDG by node set and provenance; the
// pool rejects duplicates by key, which is Algorithm 1's termination
// argument (both key dimensions are finite). Provenance is part of the key
// because the same node set can need a different view: a sequential
// map-reduction loop and the fusion of its subtracted map with its
// reduction cover identical nodes, but only the fused provenance can match
// the compound pattern. The key is a 128-bit content hash — 16 bytes per
// pool entry regardless of sub-DDG size, unlike the O(n) strings it
// replaces.
func (s *SubDDG) Key() ddg.Hash128 {
	if s.key.IsZero() {
		if s.FusedA != nil {
			// Fused sub-DDGs are keyed by their constituents, not just the
			// union: the same union can arise from different pattern
			// pairings (e.g. the row-level and pixel-level views of one
			// loop nest fused with the same consumer), and only some
			// pairings match compound patterns.
			h := ddg.NewHasher(hashSeedFusedKey)
			h.Hash(s.FusedA.Key())
			h.Hash(s.FusedB.Key())
			s.key = h.Sum()
		} else {
			h := ddg.NewHasher(hashSeedPoolKey)
			h.Hash(s.setHash())
			h.Word(uint64(s.Loop))
			var assoc uint64
			if s.Assoc {
				assoc = 1
			}
			h.Word(assoc)
			s.key = h.Sum()
		}
	}
	return s.key
}

// setHash returns Nodes.Hash(), computed once: both the pool key and the
// view hash fold it in.
func (s *SubDDG) setHash() ddg.Hash128 {
	if s.nhash.IsZero() {
		s.nhash = s.Nodes.Hash()
	}
	return s.nhash
}

// Kind describes the provenance for diagnostics.
func (s *SubDDG) Kind() string {
	switch {
	case s.FusedA != nil:
		return "fused"
	case s.Assoc:
		return "assoc"
	case s.Loop != 0:
		return fmt.Sprintf("loop%d", s.Loop)
	default:
		return "whole"
	}
}

// View builds the matching view of the sub-DDG (paper §5, DDG Compaction):
// loop-derived sub-DDGs compact to one group per dynamic iteration unless
// compaction is disabled; everything else is node-per-node. sub is the
// overlay of the sub-DDG's nodes over g when the caller already holds one
// (the match phase builds it for the prescreen census), or nil.
func (s *SubDDG) View(g *ddg.Graph, compact bool, sub *ddg.SubView) *patterns.View {
	if sub == nil {
		sub = g.Overlay(s.Nodes)
	}
	return patterns.NewView(sub, s.viewLoop(compact))
}

// viewLoop is the grouping provenance the view would use: the sub-DDG's
// loop when compacting applies, zero (node-per-node) otherwise.
func (s *SubDDG) viewLoop(compact bool) mir.LoopID {
	if s.Loop != 0 && compact {
		return s.Loop
	}
	return 0
}

// ViewHash returns the content hash of the sub-DDG's view without building
// it (see patterns.ViewKey): the cache key a solve verdict is stored
// under. Memoized; one Find run uses a single compaction mode, so the memo
// never goes stale.
func (s *SubDDG) ViewHash(compact bool) ddg.Hash128 {
	if s.vhash.IsZero() {
		s.vhash = patterns.ViewKeyOf(s.setHash(), s.viewLoop(compact))
	}
	return s.vhash
}

// CachedView is View with the result memoized on the sub-DDG, so the match
// phase and the pipeline pass share one lazily-built view per sub-DDG
// instead of rebuilding it at each use. Once-guarded: the pipeline pass
// runs its pair solves as concurrent scheduler tasks, and one stage can
// appear in several pairs, so two tasks may reach for the same sub-DDG's
// view at once (the match phase additionally serializes through
// matchPhase.viewOf, which also funnels into this memo). sub is as for
// View, and unused once the memo is filled.
func (s *SubDDG) CachedView(g *ddg.Graph, compact bool, sub *ddg.SubView) *patterns.View {
	s.viewOnce.Do(func() { s.view = s.View(g, compact, sub) })
	return s.view
}

// String summarizes the sub-DDG.
func (s *SubDDG) String() string {
	return fmt.Sprintf("subddg(%s, %d nodes)", s.Kind(), s.Nodes.Len())
}

// Decompose partitions the simplified DDG into loop sub-DDGs (one per
// static loop, spanning all invocations and threads) and associative
// component sub-DDGs (weakly connected components of same-operation
// associative nodes), the two decomposition dimensions of paper §5.
func Decompose(g *ddg.Graph) []*SubDDG {
	var subs []*SubDDG

	// Loop sub-DDGs.
	byLoop := map[mir.LoopID][]ddg.NodeID{}
	for i := 0; i < g.NumNodes(); i++ {
		u := ddg.NodeID(i)
		for f := g.ScopeOf(u); f != nil; f = f.Parent {
			byLoop[f.Loop] = append(byLoop[f.Loop], u)
		}
	}
	loopIDs := make([]mir.LoopID, 0, len(byLoop))
	for id := range byLoop {
		loopIDs = append(loopIDs, id)
	}
	sort.Slice(loopIDs, func(i, j int) bool { return loopIDs[i] < loopIDs[j] })
	for _, id := range loopIDs {
		nodes := ddg.NewSet(byLoop[id]...)
		if nodes.Len() < 2 {
			continue
		}
		subs = append(subs, &SubDDG{Nodes: nodes, Loop: id})
	}

	// Associative component sub-DDGs, per associative operation. A weakly
	// connected component can mix executions of several static
	// instructions — e.g. the accumulator inside dist() chains into the
	// per-thread partial sums that chain into the final sum. A reduction
	// pattern covers a subset of those instructions (the partial and final
	// accumulators, but not dist's), so decomposition enumerates the
	// connected subcomponents that are closed over static source positions
	// (include an instruction, include all its executions in the
	// component). This is the node-set freedom the paper's constraint
	// models have natively; class counts per component are small, so the
	// enumeration is cheap (and capped).
	byOp := map[mir.Op][]ddg.NodeID{}
	for i := 0; i < g.NumNodes(); i++ {
		u := ddg.NodeID(i)
		if g.Op(u).Associative() {
			byOp[g.Op(u)] = append(byOp[g.Op(u)], u)
		}
	}
	ops := make([]mir.Op, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	seen := map[ddg.Hash128]bool{}
	addAssoc := func(nodes ddg.Set) {
		if nodes.Len() < 2 {
			return
		}
		h := nodes.Hash()
		if seen[h] {
			return
		}
		seen[h] = true
		subs = append(subs, &SubDDG{Nodes: nodes, Assoc: true, nhash: h})
	}
	for _, op := range ops {
		all := ddg.NewSet(byOp[op]...)
		for _, comp := range g.WeaklyConnectedComponents(all) {
			if comp.Len() < 2 {
				continue
			}
			for _, sub := range positionClosedSubsets(g, comp) {
				for _, wcc := range g.WeaklyConnectedComponents(sub) {
					addAssoc(wcc)
				}
			}
		}
	}
	return subs
}

// maxPositionClasses caps the subset enumeration in associative component
// decomposition; components mixing more static instructions fall back to
// the whole component plus its per-instruction slices.
const maxPositionClasses = 6

// positionClosedSubsets enumerates the subsets of comp that are closed
// over static source positions, including comp itself.
func positionClosedSubsets(g *ddg.Graph, comp ddg.Set) []ddg.Set {
	byPos := map[mir.Pos][]ddg.NodeID{}
	for _, u := range comp {
		byPos[g.Pos(u)] = append(byPos[g.Pos(u)], u)
	}
	if len(byPos) == 1 {
		return []ddg.Set{comp}
	}
	classes := make([]ddg.Set, 0, len(byPos))
	poss := make([]mir.Pos, 0, len(byPos))
	for pos := range byPos {
		poss = append(poss, pos)
	}
	sort.Slice(poss, func(i, j int) bool {
		if poss[i].File != poss[j].File {
			return poss[i].File < poss[j].File
		}
		return poss[i].Line < poss[j].Line
	})
	for _, pos := range poss {
		classes = append(classes, ddg.NewSet(byPos[pos]...))
	}
	if len(classes) > maxPositionClasses {
		out := []ddg.Set{comp}
		out = append(out, classes...)
		return out
	}
	var out []ddg.Set
	for mask := 1; mask < 1<<len(classes); mask++ {
		var parts []ddg.Set
		for i, cl := range classes {
			if mask&(1<<i) != 0 {
				parts = append(parts, cl)
			}
		}
		out = append(out, ddg.UnionAll(parts...))
	}
	return out
}
