package core

// Randomized compaction and out-of-core checks: over structured random
// programs, every graph the finder sees — the trace and its simplified
// subgraph — must derive loop-iteration indexes that agree with its scope
// chains, and the finder must report identical patterns whether the
// simplified graph's adjacency is resident or paged through a spill file.

import (
	"fmt"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/trace"
)

// patternSig renders a finder result's pattern set byte-for-byte.
func patternSig(res *Result) string {
	s := ""
	for _, p := range res.Patterns {
		s += p.Kind.String() + ":" + p.Nodes().Key() + ";"
	}
	return s
}

// TestCompactionDifferentialRandomPrograms holds the derived iteration
// indexes of each seed's trace, and of its simplified subgraph (which
// derives its own), against the scope chains node by node: CheckInvariants
// audits every index with IterationOf. (The name predates derived
// indexes: it once held a trace-time fold against the scope-chain walk.)
func TestCompactionDifferentialRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			tr, err := trace.Run(genProgram(seed))
			if err != nil {
				t.Fatalf("trace.Run: %v", err)
			}
			// genProgram always emits loops, so there is something to index.
			indexed := false
			for u := 0; u < tr.Graph.NumNodes() && !indexed; u++ {
				if s := tr.Graph.ScopeOf(ddg.NodeID(u)); s != nil {
					indexed = tr.Graph.LoopIterIndex(s.Loop) != nil
				}
			}
			if !indexed {
				t.Fatal("traced graph has no indexed loop")
			}
			if err := tr.Graph.CheckInvariants(); err != nil {
				t.Fatalf("traced graph fails invariants: %v", err)
			}
			if err := Simplify(tr.Graph).CheckInvariants(); err != nil {
				t.Fatalf("simplified graph fails invariants: %v", err)
			}
		})
	}
}

func TestFinderEquivalentWhenSpilled(t *testing.T) {
	for seed := uint64(31); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			prog := genProgram(seed)
			traced := func() *ddg.Graph {
				tr, err := trace.Run(prog)
				if err != nil {
					t.Fatalf("trace.Run: %v", err)
				}
				return tr.Graph
			}
			resident := Find(traced(), Options{Workers: 2})
			paged := Find(traced(), Options{Workers: 2, SpillBudget: 128, SpillDir: t.TempDir()})
			defer paged.Graph.CloseSpill()
			if !paged.Graph.Spilled() {
				t.Fatal("128-byte budget did not spill the simplified graph")
			}
			if st := paged.Graph.PageStats(); st.Faults == 0 {
				t.Fatalf("finder never paged the spilled graph: %+v", st)
			}
			if got, want := patternSig(paged), patternSig(resident); got != want {
				t.Fatalf("paged finder found %q, resident finder found %q", got, want)
			}
		})
	}
}
