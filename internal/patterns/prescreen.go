package patterns

// Structural prescreen: a one-pass census over the zero-copy overlay that
// decides, per pattern kind, whether a view can possibly match before any
// grouping, labelling, or solving happens. Telegin et al. (PAPERS.md) show
// cheap graph-label censuses answer parallelizability questions without
// search; here the census replicates exactly the matchers' own pre-solver
// structural rejections, so a CannotMatch verdict is sound (the matcher
// would return nil) and never suppresses a constraint-solver run the
// matcher would have performed — which is what keeps default outputs,
// including the per-kind solver-effort accounting, byte-identical with the
// prescreen on.
//
// The payoff is where the work happens, not what is decided: one O(nodes +
// arcs) pass over the overlay replaces, for structurally doomed views, the
// grouping build (maps and sorts for compacted loop views), the per-kind
// matcher preambles, and the label/op-set string construction. Verdicts
// are content-addressed into the finder's view cache under the same
// 128-bit view hash the solve verdicts use.

import (
	"slices"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// Prescreen is the structural census of one view, with per-kind
// CannotMatch verdicts derived from it. A nil *Prescreen is valid and
// means "not screened" (every kind Maybe).
type Prescreen struct {
	// NumNodes and Arcs count the members and the distinct member-to-member
	// arcs (node level, parallel arcs deduplicated).
	NumNodes int
	Arcs     int
	// ExtIn and ExtOut count members with at least one external
	// predecessor / successor (the boundary census).
	ExtIn, ExtOut int
	// MaxIn/MaxOut are the largest in-view node degrees; Sources and Sinks
	// count in-view degree-zero members; Junctions counts members with
	// in-view in-degree exactly two (the tiled reduction's final-chain
	// joins). Node-level facts: for node-per-node views they equal the
	// group-level facts the matchers test.
	MaxIn, MaxOut  int
	Sources, Sinks int
	Junctions      int
	// Isolated counts members with neither an external nor an in-view
	// predecessor (a linear reduction's (3e) violation).
	Isolated int
	// AllAssocOneOp reports that every member is one common associative
	// operation — necessary for every reduction kind under the paper's 3b
	// under-approximation.
	AllAssocOneOp bool
	// InterGroup reports an arc between members of different groups. For
	// compacted loop views this is the loop-carried dependence bit (an arc
	// crossing (invocation, iteration) classes); it refutes the map kinds'
	// component-independence constraint (2b) without building the grouping.
	InterGroup bool
	// CompactedLoop marks a compacted loop view, where groups are unknown at
	// node level and only the group-count-insensitive rules apply.
	CompactedLoop bool

	cannot uint32
}

// prescreenBit maps a pattern kind to its verdict bit; kinds the prescreen
// does not reason about get no bit and are always Maybe.
func prescreenBit(k Kind) uint32 {
	switch k {
	case KindMap, KindConditionalMap:
		return 1
	case KindLinearReduction:
		return 2
	case KindTiledReduction:
		return 4
	case KindTreeReduction:
		return 8
	}
	return 0
}

// CannotMatch reports that the census proves the view cannot match kind:
// the kind's matcher is guaranteed to return nil, and would have decided so
// before reaching the constraint solver. False means Maybe, never "match".
func (p *Prescreen) CannotMatch(k Kind) bool {
	if p == nil {
		return false
	}
	return p.cannot&prescreenBit(k) != 0
}

// PrescreenSub runs the census for the view of the overlay's member set
// under the grouping provenance loop (zero = node-per-node), in one pass
// over the overlay. Cost is O(members + member arcs): membership and the
// in-degree slot of an arc's head are both answered by the overlay's O(1)
// Rank, and nothing of the grouping, labels, or reachability structure is
// built. The caller builds the overlay (g.Overlay(nodes)), so the matching
// view of the same sub-DDG can share it.
func PrescreenSub(sub *ddg.SubView, loop mir.LoopID) *Prescreen {
	nodes := sub.Nodes()
	g := sub.Base()
	p := &Prescreen{
		NumNodes:      nodes.Len(),
		CompactedLoop: loop != 0,
		AllAssocOneOp: true,
	}
	var iters *ddg.LoopIterIndex // the grouping LoopView would build
	if p.CompactedLoop {
		iters = g.LoopIterIndex(loop)
	}
	indeg := make([]int32, p.NumNodes)
	var scratch []int // member successors of u, by rank
	var firstOp mir.Op
	for i, u := range nodes {
		if p.AllAssocOneOp {
			op := g.Op(u)
			if i == 0 {
				firstOp = op
			}
			if !op.Associative() || op != firstOp {
				p.AllAssocOneOp = false
			}
		}
		extIn, inView := false, false
		for _, w := range g.Preds(u) {
			if sub.Contains(w) {
				inView = true
			} else {
				extIn = true
			}
		}
		if extIn {
			p.ExtIn++
		} else if !inView {
			p.Isolated++
		}
		// Distinct member successors (a two-operand use duplicates its arc;
		// the matchers see deduplicated group arcs, so the census must too).
		scratch = scratch[:0]
		extOut := false
		for _, w := range g.Succs(u) {
			if r := sub.Rank(w); r < 0 {
				extOut = true
			} else if !slices.Contains(scratch, r) {
				scratch = append(scratch, r)
			}
		}
		if extOut {
			p.ExtOut++
		}
		out := len(scratch)
		p.Arcs += out
		if out > p.MaxOut {
			p.MaxOut = out
		}
		if out == 0 {
			p.Sinks++
		}
		for _, r := range scratch {
			indeg[r]++
			if p.CompactedLoop && !p.InterGroup {
				ou, oku := iters.OrdinalOf(u)
				ow, okw := iters.OrdinalOf(nodes[r])
				if !oku || !okw || ou != ow {
					p.InterGroup = true
				}
			}
		}
	}
	if !p.CompactedLoop && p.Arcs > 0 {
		p.InterGroup = true // node-per-node: any member arc crosses groups
	}
	for _, d := range indeg {
		if int(d) > p.MaxIn {
			p.MaxIn = int(d)
		}
		switch d {
		case 0:
			p.Sources++
		case 2:
			p.Junctions++
		}
	}
	p.verdicts()
	return p
}

// verdicts derives the per-kind CannotMatch bits. Every rule replicates a
// rejection the kind's matcher performs before any solver run:
//
//   - Node-per-node views expose the exact group structure, so the full
//     pre-solver preamble of each matcher is mirrored.
//   - Compacted loop views hide the grouping; only rules that are
//     group-count-insensitive apply (a loop-carried arc refutes map
//     independence 2b; a non-uniform or non-associative op multiset
//     refutes singleAssocOp for every reduction; no external input
//     anywhere refutes map 2c and linear 3e; node-count lower bounds
//     dominate group counts).
func (p *Prescreen) verdicts() {
	noRed := !p.AllAssocOneOp
	var cannotMap, cannotLin, cannotTiled, cannotTree bool
	if p.CompactedLoop {
		cannotMap = p.NumNodes < 2 || p.InterGroup || p.ExtIn == 0 || p.ExtOut == 0
		cannotLin = p.NumNodes < 2 || noRed || p.ExtIn == 0
		cannotTiled = p.NumNodes < 4 || noRed
		cannotTree = p.NumNodes < 3 || noRed
	} else {
		m := p.Junctions + 1
		cannotMap = p.NumNodes < 2 || p.Arcs > 0 || p.ExtIn < p.NumNodes || p.ExtOut == 0
		cannotLin = p.NumNodes < 2 || noRed || p.Isolated > 0 ||
			p.MaxOut > 1 || p.MaxIn > 1 || p.Arcs != p.NumNodes-1 || p.Sources != 1
		cannotTiled = p.NumNodes < 4 || p.NumNodes > 4096 || noRed || p.MaxIn > 2 ||
			p.Sinks != 1 || m < 2 || (p.NumNodes-m)%m != 0
		cannotTree = p.NumNodes < 3 || noRed || p.MaxOut > 1 ||
			p.Sinks != 1 || p.Arcs != p.NumNodes-1
	}
	if cannotMap {
		p.cannot |= prescreenBit(KindMap)
	}
	if cannotLin {
		p.cannot |= prescreenBit(KindLinearReduction)
	}
	if cannotTiled {
		p.cannot |= prescreenBit(KindTiledReduction)
	}
	if cannotTree {
		p.cannot |= prescreenBit(KindTreeReduction)
	}
}
