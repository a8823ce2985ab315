package core_test

// Difference-census differential suite. The finder derives a subtract
// difference's census from its parent's (patterns.PrescreenDiff) instead
// of recounting it; every derived census must equal a full census of the
// same node set on a fresh overlay, in every exported field and every
// CannotMatch verdict. Runs on the corpus, on two scaled rungs of the
// Figure 7 ladder and on the seeded random programs.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/experiments"
	"discovery/internal/mir"
	"discovery/internal/patterns"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// prescreenMismatch names the first exported field or CannotMatch verdict
// on which got and want differ, or returns "" when they agree.
func prescreenMismatch(got, want *patterns.Prescreen) string {
	vg, vw := reflect.ValueOf(*got), reflect.ValueOf(*want)
	for i := 0; i < vg.NumField(); i++ {
		if f := vg.Type().Field(i); f.IsExported() && vg.Field(i).Interface() != vw.Field(i).Interface() {
			return fmt.Sprintf("%s = %v, want %v", f.Name, vg.Field(i), vw.Field(i))
		}
	}
	for k := 0; k < 256; k++ {
		kind := patterns.Kind(k)
		if g, w := got.CannotMatch(kind), want.CannotMatch(kind); g != w {
			return fmt.Sprintf("CannotMatch(%v) = %v, want %v", kind, g, w)
		}
	}
	return ""
}

// checkDerivedCensuses runs Find on g and compares every derived census
// with a full one, failing on the first mismatch. It returns the number of
// derived censuses seen.
func checkDerivedCensuses(t *testing.T, g *ddg.Graph, opts core.Options) int {
	t.Helper()
	var (
		mu    sync.Mutex
		n     int
		first string
	)
	core.SetDerivedCensusHook(func(gs *ddg.Graph, nodes ddg.Set, loop mir.LoopID, got *patterns.Prescreen) {
		m := prescreenMismatch(got, patterns.PrescreenSub(gs.Overlay(nodes), loop))
		mu.Lock()
		defer mu.Unlock()
		n++
		if m != "" && first == "" {
			first = fmt.Sprintf("derived census of %d nodes (loop %d): %s", nodes.Len(), loop, m)
		}
	})
	defer core.SetDerivedCensusHook(nil)
	core.Find(g, opts)
	if first != "" {
		t.Fatal(first)
	}
	return n
}

func traceOrFatal(t *testing.T, prog *mir.Program) *ddg.Graph {
	t.Helper()
	tr, err := trace.Run(prog)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	return tr.Graph
}

func TestDifferenceCensusCorpus(t *testing.T) {
	total := 0
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			t.Run(b.Name+"/"+string(v), func(t *testing.T) {
				g := traceOrFatal(t, b.Build(v, b.Analysis).Prog)
				total += checkDerivedCensuses(t, g, core.Options{Workers: 2})
			})
		}
	}
	for _, c := range []struct {
		name string
		v    starbench.Version
	}{{"ray-rot", starbench.Pthreads}, {"c-ray", starbench.Seq}} {
		t.Run(fmt.Sprintf("%s/%s/x2", c.name, c.v), func(t *testing.T) {
			b := starbench.ByName(c.name)
			g := traceOrFatal(t, b.Build(c.v, experiments.ScaleParams(b, 2)).Prog)
			n := checkDerivedCensuses(t, g, core.Options{Workers: 2})
			if n == 0 {
				t.Errorf("no census derived; the subtract differences were all recounted")
			}
			t.Logf("%d derived censuses checked", n)
		})
	}
	if total == 0 {
		t.Errorf("no census derived on the corpus")
	}
	t.Logf("%d derived censuses checked on the corpus", total)
}

func TestDifferenceCensusRandomPrograms(t *testing.T) {
	total := 0
	for seed := uint64(301); seed <= 330; seed++ { // the prescreen suite's 30 seeds
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			opts := core.Options{Workers: 8}
			if seed%3 == 0 {
				opts.Extensions = true
			}
			total += checkDerivedCensuses(t, traceOrFatal(t, core.GenRandomProgram(seed)), opts)
		})
	}
	t.Logf("%d derived censuses checked", total)
}
