package report

// The out-of-core gate. md5/seq is traced at 8× and 80× its analysis
// input under a 256 KiB resident arc-byte budget: the small graph stays
// resident, the large one must spill, fault its way through a full
// adjacency sweep, and keep its peak resident bytes inside the budget
// headroom. Then a find over a spilled graph must surface the paging
// through the program's own Prometheus export.

import (
	"context"
	"strings"
	"testing"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/obs"
	"discovery/internal/starbench"
	"discovery/internal/trace"
	"discovery/internal/vm"
)

func TestOutOfCoreSpillBounds(t *testing.T) {
	const budget = 262144
	// One in-flight segment plus the pinned hot set may sit above budget.
	headroom := int64(budget + 2*ddg.DefaultSegmentBytes)
	md5 := starbench.ByName("md5")
	spilled := 0
	for _, nbuf := range []int64{32, 320} {
		built := md5.Build(starbench.Seq, starbench.Params{"nbuf": nbuf, "bufwords": 4, "nproc": 2})
		tr, err := trace.Run(built.Prog, vm.WithMaxOps(1<<40))
		if err != nil {
			t.Fatalf("nbuf %d: %v", nbuf, err)
		}
		g := tr.Graph
		arcBytes := int64(g.NumArcs()) * 2 * 4 // both CSR arc arrays
		ok, err := g.MaybeSpill(ddg.SpillConfig{Dir: t.TempDir(), Budget: budget})
		if err != nil {
			t.Fatalf("nbuf %d: spilling: %v", nbuf, err)
		}
		// Touch every adjacency list; on a spilled graph this pages
		// through the whole spill file under the budget.
		endpoints := 0
		for u := ddg.NodeID(0); int(u) < g.NumNodes(); u++ {
			endpoints += len(g.Succs(u)) + len(g.Preds(u))
		}
		st := g.PageStats()
		g.CloseSpill()
		if endpoints != 2*g.NumArcs() {
			t.Fatalf("nbuf %d: sweep saw %d arc endpoints, want %d", nbuf, endpoints, 2*g.NumArcs())
		}
		if !ok {
			if arcBytes > budget {
				t.Errorf("nbuf %d: over budget (%d > %d arc bytes) but did not spill", nbuf, arcBytes, budget)
			}
			continue
		}
		spilled++
		if st.Faults == 0 {
			t.Errorf("nbuf %d: spilled but never faulted", nbuf)
		}
		if st.SpilledBytes != arcBytes {
			t.Errorf("nbuf %d: spilled %d bytes, want %d", nbuf, st.SpilledBytes, arcBytes)
		}
		if st.PeakResidentBytes > headroom {
			t.Errorf("nbuf %d: peak resident %d exceeds budget headroom %d", nbuf, st.PeakResidentBytes, headroom)
		}
	}
	if spilled == 0 {
		t.Fatalf("no input spilled under budget %d; the ladder tested nothing", budget)
	}
}

// TestOutOfCorePagingMetricsExported checks the finder's own export, not
// a harness's: a find that spills its simplified graph must report the
// spill and its paging under the canonical discovery_ddg_* names.
func TestOutOfCorePagingMetricsExported(t *testing.T) {
	md5 := starbench.ByName("md5")
	tr, err := trace.Run(md5.Build(starbench.Seq, md5.Analysis).Prog)
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewCollector()
	res := core.FindCtx(context.Background(), tr.Graph, core.Options{
		SpillBudget: 512, SpillDir: t.TempDir(), Obs: c,
	})
	defer res.Graph.CloseSpill()
	if !res.Graph.Spilled() {
		t.Fatal("simplified graph did not spill under a 512-byte budget")
	}
	rendered := PrometheusMetrics(c)
	for _, name := range []string{
		obs.MetricDDGSpills,
		obs.MetricDDGPageFaults,
		obs.MetricDDGPagesReadBytes,
		obs.MetricDDGPagesSpilledBytes,
		obs.MetricDDGPagesPeakResidentBytes,
	} {
		if !strings.Contains(rendered, name) {
			t.Errorf("metric %s missing from the Prometheus export:\n%s", name, rendered)
		}
	}
}
