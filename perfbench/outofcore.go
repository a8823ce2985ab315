package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/obs"
	"discovery/internal/starbench"
	"discovery/internal/trace"
	"discovery/internal/vm"
)

// The outofcore workload: large and paged DDGs, the layers the other two
// workloads barely touch (the tracer, finalize, simplification at scale
// and the ddg pager each take well under 2% of them).
//
//   - bigtrace: md5/seq at the trace-scale experiment's 10× input (nbuf
//     2560, about two million nodes) is traced, its arcs spilled under a
//     4 MiB budget, and the spilled graph simplified.
//   - pagedfind: the finder on a graph paged through a 512-byte resident
//     set, which faults on nearly every adjacency read. rot-cc/pthreads ×2
//     and md5/seq ×2 fault 30 to 45 thousand times each. Paged time grows
//     faster than the graph (rot-cc ×4 took 4.4 s, md5 ×8 13 s, ray-rot
//     minutes), and the larger inputs are left out so that a run holds
//     five passes.
const (
	bigTraceFactor = 640 // md5 analysis nbuf 4 × 640 = 2560
	bigSpillBudget = 4 << 20
	pagedBudget    = 512
)

var bigTraceJob = jobSpec{"md5", starbench.Seq, bigTraceFactor}

var pagedJobs = []jobSpec{
	{"rot-cc", starbench.Pthreads, 2},
	{"md5", starbench.Seq, 2},
}

// outOfCorePlan returns the seed's order of the paged analyses. Bigtrace
// always runs first in a pass, so every pass starts it from the same heap.
func outOfCorePlan(seed int64) []jobSpec {
	paged := append([]jobSpec(nil), pagedJobs...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(paged), func(i, j int) { paged[i], paged[j] = paged[j], paged[i] })
	return paged
}

// passTotal is a pass's wall time, every part's trace plus the rest.
func passTotal(outs []*outcome) time.Duration {
	var t time.Duration
	for _, o := range outs {
		t += o.Total()
	}
	return t
}

func runOutOfCore(ctx context.Context, cfg config, or *oracle) (*result, error) {
	specs := outOfCorePlan(cfg.seed)
	var big *job
	var paged []*job
	resident := map[string][]byte{}
	setup, err := repeatSetup(cfg.setups, func() error {
		var err error
		if big, err = newJob(bigTraceJob); err != nil {
			return err
		}
		if paged, err = buildJobs(specs); err != nil {
			return err
		}
		// The resident runs the paged reports must reproduce byte for byte.
		for _, j := range paged {
			out, err := analyze(ctx, j, findOptions(), nil)
			if err != nil {
				return err
			}
			or.analysis(out.Key, out.Patterns, out.Report)
			resident[out.Key] = out.Report
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// A pass is bigtrace, then the paged analyses; each part is one
	// outcome, bigtrace's under the key "bigtrace".
	pass := func(rec *obs.Collector) ([]*outcome, error) {
		big, err := bigTrace(big, cfg.tmp, or, rec)
		if err != nil {
			return nil, err
		}
		outs := []*outcome{big}
		opts := findOptions()
		opts.SpillBudget, opts.SpillDir = pagedBudget, cfg.tmp
		for _, j := range paged {
			out, err := analyze(ctx, j, opts, rec)
			if err != nil {
				return nil, err
			}
			or.analysis(out.Key, out.Patterns, out.Report)
			or.sameBytes(out.Key+" paged", out.Report, resident[out.Key])
			or.check(out.Pages.Faults > 0, "%s: graph did not page", out.Key)
			or.check(!out.Degraded, "%s: degraded result", out.Key)
			outs = append(outs, out)
		}
		return outs, nil
	}

	res := newResult()
	res.e2e.set("setup_s", setup)
	start := time.Now()
	if !cfg.trace {
		var passes [][]*outcome
		for {
			p, err := pass(nil)
			if err != nil {
				return nil, err
			}
			passes = append(passes, p)
			if !another(start, cfg.seconds, len(passes)) {
				break
			}
		}
		for i := 1; i < len(passes); i++ {
			or.counts("outofcore pass", efforts(passes[0]), efforts(passes[i]))
		}
		// Per-part medians across passes, so a burst of load on the shared
		// machine that slows one pass does not move the figures.
		var parts []map[string]time.Duration
		var totals []float64
		for _, p := range passes {
			parts = append(parts, timesByKey(p))
			totals = append(totals, secs(passTotal(p)))
		}
		typical := medianByKey(parts)
		var paged time.Duration
		for _, s := range pagedJobs {
			paged += typical[s.key()]
		}
		res.e2e.set("pass_s", secs(typical["bigtrace"]+paged))
		res.e2e.set("p50_ms", ms(typical["bigtrace"]))
		res.detail["bigtrace_s"] = secs(typical["bigtrace"])
		res.detail["pagedfind_s"] = secs(paged)
		res.detail["pass_times_s"] = totals
		res.detail["counts"] = efforts(passes[0])
		return res, nil
	}

	plain, err := pass(nil)
	if err != nil {
		return nil, err
	}
	c := obs.NewCollector()
	traced, err := pass(c)
	if err != nil {
		return nil, err
	}
	or.counts("outofcore traced pass", efforts(plain), efforts(traced))
	m := res.layers
	finderLayers(m, c, traced)
	st := attribute(c.Spans())
	m.set("ddg.spill_s", secs(st.wall["bench.spill"]))
	m.add("core.simplify_s", secs(st.wall["bench.simplify"]))
	m.set("bench.trace_overhead", secs(passTotal(traced))/secs(passTotal(plain))-1)
	res.detail["counts"] = efforts(traced)
	return res, nil
}

// bigTrace runs the bigtrace part: trace, spill, simplify the spilled
// graph, each call timed, and checks the sizes and the simplified graph's
// fingerprint against the pins. Its outcome's Trace is the tracing, its
// Find the spill and the simplification.
func bigTrace(j *job, dir string, or *oracle, rec *obs.Collector) (*outcome, error) {
	// Start from a heap handed back to the system, and hand this graph
	// back before the paged analyses run: every pass then starts from the
	// same heap, and the process's peak stays one graph high.
	release()
	defer release()
	out := &outcome{Key: "bigtrace"}
	var root, sp obs.SpanID
	span := func(name string) {
		if rec != nil {
			sp = rec.StartSpan(name, root)
		}
	}
	end := func() {
		if rec != nil {
			rec.EndSpan(sp)
		}
	}
	if rec != nil {
		root = rec.StartSpan("bench.bigtrace", 0)
		defer rec.EndSpan(root)
	}

	start := time.Now()
	span("bench.trace")
	var tr *trace.Result
	var err error
	if rec != nil {
		tr, err = trace.RunObserved(j.prog, rec, sp, vm.WithMaxOps(1<<40))
	} else {
		tr, err = trace.Run(j.prog, vm.WithMaxOps(1<<40))
	}
	end()
	if err != nil {
		return nil, fmt.Errorf("bigtrace: tracing: %w", err)
	}
	out.Trace = time.Since(start)
	g := tr.Graph

	start = time.Now()
	span("bench.spill")
	spilled, err := g.MaybeSpill(ddg.SpillConfig{Dir: dir, Budget: bigSpillBudget})
	end()
	if err != nil {
		return nil, fmt.Errorf("bigtrace: spilling: %w", err)
	}
	span("bench.simplify")
	gs := core.Simplify(g)
	end()
	out.Find = time.Since(start)

	out.Nodes, out.SimplifiedNodes = g.NumNodes(), gs.NumNodes()
	out.Pages = g.PageStats()
	out.Effort = effort{TraceNodes: g.NumNodes(), PageReads: out.Pages.Reads}
	want := or.pins.BigTrace
	fp := gs.Fingerprint()
	or.check(spilled, "bigtrace: graph did not spill")
	or.check(g.NumNodes() == want.Nodes && g.NumArcs() == want.Arcs &&
		gs.NumNodes() == want.Simplified && gs.NumArcs() == want.SimplifiedArcs &&
		fmt.Sprintf("%016x%016x", fp.Hi, fp.Lo) == want.Fingerprint,
		"bigtrace: %d nodes %d arcs, simplified %d nodes %d arcs %016x%016x; pinned %+v",
		g.NumNodes(), g.NumArcs(), gs.NumNodes(), gs.NumArcs(), fp.Hi, fp.Lo, want)
	if err := g.CloseSpill(); err != nil {
		return nil, fmt.Errorf("bigtrace: closing spill: %w", err)
	}
	return out, nil
}

func release() {
	runtime.GC()
	debug.FreeOSMemory()
}
