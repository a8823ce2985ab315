package trace_test

// Compaction checks over real traces. Every graph derives its
// loop-iteration groups from its scope chains (ddg.Graph.LoopIterIndex);
// these tests hold patterns.LoopView's bucket-by-ordinal grouping against
// a reference grouping computed here, in the test, straight from
// Scope.FrameFor — the paper's trace-then-compact definition — on
// resident, spilled, and canonicalized graphs.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/patterns"
	"discovery/internal/starbench"
	"discovery/internal/trace"
	"discovery/internal/vm"
)

// loopsOf collects every static loop appearing in any node's scope chain,
// sorted — the full set of loops LoopView can be asked about.
func loopsOf(g *ddg.Graph) []mir.LoopID {
	seen := map[mir.LoopID]bool{}
	for u := ddg.NodeID(0); int(u) < g.NumNodes(); u++ {
		for f := g.ScopeOf(u); f != nil; f = f.Parent {
			seen[f.Loop] = true
		}
	}
	loops := make([]mir.LoopID, 0, len(seen))
	for l := range seen {
		loops = append(loops, l)
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i] < loops[j] })
	return loops
}

// groupsKey renders a grouping byte-for-byte.
func groupsKey(groups []ddg.Set) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "groups=%d\n", len(groups))
	for i, grp := range groups {
		fmt.Fprintf(&sb, "%d: %v\n", i, grp)
	}
	return sb.String()
}

// referenceGroups computes the compacted grouping of nodes under loop
// from the scope chains alone: one group per (invocation, iteration) in
// ascending order, then every node outside the loop on its own, in input
// order.
func referenceGroups(g *ddg.Graph, nodes ddg.Set, loop mir.LoopID) []ddg.Set {
	byIter := map[ddg.IterationKey][]ddg.NodeID{}
	var keys []ddg.IterationKey
	var loose []ddg.NodeID
	for _, u := range nodes {
		k, ok := g.IterationOf(u, loop)
		if !ok {
			loose = append(loose, u)
			continue
		}
		if byIter[k] == nil {
			keys = append(keys, k)
		}
		byIter[k] = append(byIter[k], u)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Invocation != keys[j].Invocation {
			return keys[i].Invocation < keys[j].Invocation
		}
		return keys[i].Iter < keys[j].Iter
	})
	groups := make([]ddg.Set, 0, len(keys)+len(loose))
	for _, k := range keys {
		groups = append(groups, ddg.NewSet(byIter[k]...))
	}
	for _, u := range loose {
		groups = append(groups, ddg.NewSet(u))
	}
	return groups
}

// subsetsOf returns deterministic node subsets to view: the full set, the
// first half, every other node, and a pseudo-random third.
func subsetsOf(g *ddg.Graph, seed uint64) []ddg.Set {
	n := g.NumNodes()
	all := g.Nodes()
	half := make([]ddg.NodeID, 0, n/2)
	even := make([]ddg.NodeID, 0, n/2)
	var rnd []ddg.NodeID
	x := seed | 1
	for u := 0; u < n; u++ {
		if u < n/2 {
			half = append(half, ddg.NodeID(u))
		}
		if u%2 == 0 {
			even = append(even, ddg.NodeID(u))
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%3 == 0 {
			rnd = append(rnd, ddg.NodeID(u))
		}
	}
	return []ddg.Set{all, ddg.NewSet(half...), ddg.NewSet(even...), ddg.NewSet(rnd...)}
}

// TestOnlineCompactionDifferentialStarbench holds, for every benchmark ×
// version, the derived iteration indexes against the scope chains: full
// invariant checking (which compares every index with IterationOf node by
// node), then LoopView against the reference grouping for every loop and
// several node subsets. (The name predates derived indexes: it once held
// a trace-time fold against the scope-chain walk.)
func TestOnlineCompactionDifferentialStarbench(t *testing.T) {
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			b, v := b, v
			t.Run(fmt.Sprintf("%s_%s", b.Name, v), func(t *testing.T) {
				t.Parallel()
				built := b.Build(v, b.Analysis)
				res, err := trace.Run(built.Prog, vm.WithMaxOps(1<<24))
				if err != nil {
					t.Fatalf("trace.Run: %v", err)
				}
				g := res.Graph
				if err := g.CheckInvariants(); err != nil {
					t.Fatalf("traced graph fails invariants: %v", err)
				}
				for _, loop := range loopsOf(g) {
					if g.LoopIterIndex(loop) == nil {
						t.Errorf("loop %d in scope chains but unindexed", loop)
						continue
					}
					for si, nodes := range subsetsOf(g, uint64(loop)+1) {
						got := groupsKey(patterns.LoopView(g, nodes, loop).Groups)
						if want := groupsKey(referenceGroups(g, nodes, loop)); got != want {
							t.Fatalf("loop %d subset %d: LoopView grouping differs from the scope chains:\ngot:\n%swant:\n%s",
								loop, si, got, want)
						}
					}
				}
			})
		}
	}
}

// TestCompactionIndexedViewsOnSpilledGraph spills a traced graph's
// adjacency at a tiny budget and asserts the paged reads, the invariant
// checker, and LoopView all still agree byte-for-byte with a resident
// trace of the same program.
func TestCompactionIndexedViewsOnSpilledGraph(t *testing.T) {
	for _, tc := range stressCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			b := starbench.ByName(tc.name)
			built := b.Build(starbench.Pthreads, tc.params)
			traced := func() *ddg.Graph {
				res, err := trace.Run(built.Prog, vm.WithMaxOps(1<<24))
				if err != nil {
					t.Fatalf("trace.Run: %v", err)
				}
				return res.Graph
			}
			rg, cg := traced(), traced()
			resident := fingerprint(rg)

			if err := cg.SpillArcs(ddg.SpillConfig{Dir: t.TempDir(), Budget: 256, SegmentBytes: 128}); err != nil {
				t.Fatalf("SpillArcs: %v", err)
			}
			defer cg.CloseSpill()
			if !cg.Spilled() {
				t.Fatal("graph did not spill")
			}
			// Every adjacency read now pages; the rendering must not change.
			if got := fingerprint(cg); got != resident {
				t.Fatal("paged adjacency differs from resident adjacency")
			}
			st := cg.PageStats()
			if st.Faults == 0 || st.SpilledBytes == 0 {
				t.Fatalf("spilled graph recorded no paging activity: %+v", st)
			}
			if st.PeakResidentBytes > 256+int64(cg.NumNodes())*4 {
				// Budget + one oversized in-flight segment is the ceiling.
				t.Fatalf("peak resident %d exceeds budget headroom", st.PeakResidentBytes)
			}
			if err := cg.CheckInvariants(); err != nil {
				t.Fatalf("spilled graph fails invariants: %v", err)
			}
			for _, loop := range loopsOf(cg) {
				nodes := cg.Nodes()
				paged := groupsKey(patterns.LoopView(cg, nodes, loop).Groups)
				if want := groupsKey(patterns.LoopView(rg, nodes, loop).Groups); paged != want {
					t.Fatalf("loop %d: grouping on the spilled graph differs from the resident trace", loop)
				}
			}
		})
	}
}
