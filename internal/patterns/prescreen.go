package patterns

// Structural prescreen: a census over the zero-copy overlay that decides,
// per pattern kind, whether a view can possibly match before any grouping,
// labelling, or solving happens. Telegin et al. (PAPERS.md) show cheap
// graph-label censuses answer parallelizability questions without search;
// here the census replicates exactly the matchers' own pre-solver
// structural rejections, so a CannotMatch verdict is sound (the matcher
// would return nil) and never suppresses a constraint-solver run the
// matcher would have performed — which is what keeps default outputs,
// including the per-kind solver-effort accounting, byte-identical with the
// prescreen on.
//
// The payoff is where the work happens, not what is decided: an O(nodes +
// arcs) pass over the overlay replaces, for structurally doomed views, the
// grouping build (maps and sorts for compacted loop views), the per-kind
// matcher preambles, and the label/op-set string construction. Verdicts
// are content-addressed into the finder's view cache under the same
// 128-bit view hash the solve verdicts use.
//
// Every census field is a sum, a histogram, or derived from one, over
// per-member facts that depend only on which of the member's own
// neighbours are members (memberFacts). So the census of a subtracted
// difference D = P \ R is the parent's, minus the old facts of R and of
// R's neighbours in D, plus the new facts of those neighbours: O(removed +
// border) instead of O(D) (PrescreenDiff; DESIGN.md §13).

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

	// The tally the derived fields come from: members by distinct in-view
	// in- and out-degree, members by op, and the group-crossing member
	// arcs. NumNodes, Arcs, ExtIn, ExtOut and Isolated are sums themselves.
	inHist, outHist []int32
	ops             []opCount
	cross           int

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

// memberFacts are the census facts of one member: everything the census
// sums or histograms. They depend only on the member's op and on which of
// its own predecessors and successors are members.
type memberFacts struct {
	op     mir.Op
	in     int  // distinct member predecessors
	out    int  // distinct member successors
	cross  int  // distinct member successors in a different group
	extIn  bool // some predecessor is not a member
	extOut bool // some successor is not a member
}

// census is the per-call context of a census: the graph, the iteration
// index the grouping would use, and the dedup scratch. A nil index (a
// node-per-node view, or a loop no node executed in) gives no member an
// iteration, so every member arc crosses groups.
type census struct {
	g       *ddg.Graph
	iters   *ddg.LoopIterIndex
	scratch []ddg.NodeID
}

func newCensus(g *ddg.Graph, loop mir.LoopID) *census {
	c := &census{g: g}
	if loop != 0 {
		c.iters = g.LoopIterIndex(loop)
	}
	return c
}

// members is the membership a member's facts are taken against: the view's
// overlay, plus extra (sorted) nodes when the facts are the parent's in a
// difference census.
type members struct {
	sub   *ddg.SubView
	extra ddg.Set
}

func (m members) has(u ddg.NodeID) bool {
	return m.sub.Contains(u) || (len(m.extra) > 0 && m.extra.Contains(u))
}

// facts computes u's census facts relative to the membership m. Parallel
// arcs (a two-operand use) are deduplicated: the matchers see
// deduplicated group arcs, so the census must too.
func (c *census) facts(u ddg.NodeID, m members) memberFacts {
	f := memberFacts{op: c.g.Op(u)}
	seen := c.scratch[:0]
	for _, w := range c.g.Preds(u) {
		if !m.has(w) {
			f.extIn = true
		} else if !slices.Contains(seen, w) {
			seen = append(seen, w)
		}
	}
	f.in = len(seen)
	seen = seen[:0]
	ou, oku := c.iters.OrdinalOf(u)
	for _, w := range c.g.Succs(u) {
		if !m.has(w) {
			f.extOut = true
		} else if !slices.Contains(seen, w) {
			seen = append(seen, w)
			if ow, okw := c.iters.OrdinalOf(w); !oku || !okw || ow != ou {
				f.cross++
			}
		}
	}
	f.out = len(seen)
	c.scratch = seen
	return f
}

// opCount is one bucket of the census's op multiset.
type opCount struct {
	op mir.Op
	n  int32
}

// tally adds (sign +1) or removes (sign -1) one member's facts.
func (p *Prescreen) tally(f memberFacts, sign int) {
	p.NumNodes += sign
	p.Arcs += sign * f.out
	p.cross += sign * f.cross
	if f.extIn {
		p.ExtIn += sign
	} else if f.in == 0 {
		p.Isolated += sign
	}
	if f.extOut {
		p.ExtOut += sign
	}
	p.inHist = bump(p.inHist, f.in, sign)
	p.outHist = bump(p.outHist, f.out, sign)
	i := slices.IndexFunc(p.ops, func(c opCount) bool { return c.op == f.op })
	if i < 0 {
		i = len(p.ops)
		p.ops = append(p.ops, opCount{op: f.op})
	}
	p.ops[i].n += int32(sign)
}

// bump adds sign to hist[d], growing the histogram as needed.
func bump(hist []int32, d, sign int) []int32 {
	if d >= len(hist) {
		hist = append(hist, make([]int32, d+1-len(hist))...)
	}
	hist[d] += int32(sign)
	return hist
}

// derive fills the fields that are functions of the tally, then the
// verdicts. The histograms keep every degree's count, so the maxima stay
// exact when a difference census empties the top bucket.
func (p *Prescreen) derive() {
	p.inHist = trimZeros(p.inHist)
	p.outHist = trimZeros(p.outHist)
	p.MaxIn = max(len(p.inHist)-1, 0)
	p.MaxOut = max(len(p.outHist)-1, 0)
	p.Sources = histAt(p.inHist, 0)
	p.Junctions = histAt(p.inHist, 2)
	p.Sinks = histAt(p.outHist, 0)
	p.ops = slices.DeleteFunc(p.ops, func(c opCount) bool { return c.n == 0 })
	p.AllAssocOneOp = len(p.ops) == 0 || (len(p.ops) == 1 && p.ops[0].op.Associative())
	p.InterGroup = p.cross > 0
	p.cannot = 0
	p.verdicts()
}

func trimZeros(hist []int32) []int32 {
	for len(hist) > 0 && hist[len(hist)-1] == 0 {
		hist = hist[:len(hist)-1]
	}
	return hist
}

func histAt(hist []int32, d int) int {
	if d < len(hist) {
		return int(hist[d])
	}
	return 0
}

// PrescreenSub runs the census for the view of the overlay's member set
// under the grouping provenance loop (zero = node-per-node), in one pass
// over the overlay. Cost is O(members + member arcs): membership is
// answered by the overlay's O(1) bitset, and nothing of the grouping,
// labels, or reachability structure is built. The caller builds the
// overlay (g.Overlay(nodes)), so the matching view of the same sub-DDG can
// share it.
func PrescreenSub(sub *ddg.SubView, loop mir.LoopID) *Prescreen {
	c := newCensus(sub.Base(), loop)
	p := &Prescreen{CompactedLoop: loop != 0}
	m := members{sub: sub}
	for _, u := range sub.Nodes() {
		p.tally(c.facts(u, m), 1)
	}
	p.derive()
	return p
}

// PrescreenDiff derives the census of sub's member set D = P \ removed from
// parent, the census of P under the same loop, where removed ⊆ P is
// sorted. Only the removed nodes and their neighbours in D (the border)
// have facts that differ between P and D, so the cost is O(removed +
// border) node visits rather than O(D). The result equals
// PrescreenSub(sub, loop) field for field; parent is not modified.
func PrescreenDiff(parent *Prescreen, sub *ddg.SubView, removed ddg.Set, loop mir.LoopID) *Prescreen {
	g := sub.Base()
	c := newCensus(g, loop)
	p := *parent // the derived fields are recomputed by derive
	p.inHist, p.outHist, p.ops = slices.Clone(p.inHist), slices.Clone(p.outHist), slices.Clone(p.ops)
	var border []ddg.NodeID
	for _, r := range removed {
		for _, w := range g.Preds(r) {
			if sub.Contains(w) {
				border = append(border, w)
			}
		}
		for _, w := range g.Succs(r) {
			if sub.Contains(w) {
				border = append(border, w)
			}
		}
	}
	slices.Sort(border)
	border = slices.Compact(border)
	before, after := members{sub: sub, extra: removed}, members{sub: sub}
	for _, r := range removed {
		p.tally(c.facts(r, before), -1)
	}
	for _, u := range border {
		p.tally(c.facts(u, before), -1)
		p.tally(c.facts(u, after), 1)
	}
	p.derive()
	return &p
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
