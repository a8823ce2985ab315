package main

import (
	"context"
	"fmt"
	"time"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/obs"
	"discovery/internal/report"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// findOptions are the analysis options of every direct (non-daemon)
// analysis: the experiments' settings, matches verified, default workers.
func findOptions() core.Options {
	return core.Options{VerifyMatches: true}
}

// scaleParams grows a benchmark's analysis input by factor, the way the
// Figure 7 experiment scales it.
func scaleParams(b *starbench.Benchmark, factor int64) starbench.Params {
	p := starbench.Params{}
	for k, v := range b.Analysis {
		p[k] = v
	}
	switch b.Name {
	case "c-ray", "ray-rot", "rgbyuv", "rotate", "rot-cc":
		p["w"] *= factor
	case "md5":
		p["nbuf"] *= factor
	case "kmeans", "streamcluster":
		p["n"] *= factor
	}
	return p
}

// jobSpec names one analysis: a Starbench program at an input scale.
type jobSpec struct {
	Bench   string
	Version starbench.Version
	Factor  int64
}

func (s jobSpec) key() string { return analysisKey(s.Bench, string(s.Version), s.Factor) }

// job is an analysis with its program built.
type job struct {
	jobSpec
	Key  string
	prog *mir.Program
}

func newJob(s jobSpec) (*job, error) {
	b := starbench.ByName(s.Bench)
	if b == nil {
		return nil, fmt.Errorf("unknown benchmark %q", s.Bench)
	}
	return &job{jobSpec: s, Key: s.key(), prog: b.Build(s.Version, scaleParams(b, s.Factor)).Prog}, nil
}

func buildJobs(specs []jobSpec) ([]*job, error) {
	jobs := make([]*job, 0, len(specs))
	for _, s := range specs {
		j, err := newJob(s)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// effort holds the per-analysis counts that repeat exactly for the same
// code: two passes over the same analysis must agree on every field.
// Page faults and evictions are left out: which segment the LRU drops
// depends on how the two solve workers interleave.
type effort struct {
	TraceNodes   int
	PoolSize     int
	Iterations   int
	CensusChecks int
	SolverRuns   int
	SolverEffort int64 // search nodes + propagations
	PageReads    int64
}

// outcome is one finished analysis. It keeps the result's figures, not
// the result: a pass holds many outcomes, and keeping their graphs alive
// would grow the heap, and with it collection work, from pass to pass.
type outcome struct {
	Key      string
	Nodes    int // traced DDG nodes
	Trace    time.Duration
	Find     time.Duration
	Patterns int
	Degraded bool
	Report   []byte
	Pages    ddg.PageStats
	Effort   effort

	SimplifiedNodes int
	// Cache and prescreen outcomes: hits, misses, solves requested
	// (hits + misses + skips) and solves the prescreen answered.
	CacheHits, CacheMisses, Requested, Prescreened int
}

// Total is the analysis's wall time, trace plus find.
func (o *outcome) Total() time.Duration { return o.Trace + o.Find }

// analyze traces the job's program and runs the finder on it with opts
// (a fresh private view cache each time). With rec non-nil the calls are
// wrapped in the benchmark's own spans and the program's spans are
// recorded under them. The result's spilled graph, if any, is closed
// before returning.
func analyze(ctx context.Context, j *job, opts core.Options, rec *obs.Collector) (*outcome, error) {
	out := &outcome{Key: j.Key}
	var root, sp obs.SpanID
	var tr *trace.Result
	var err error
	start := time.Now()
	if rec != nil {
		root = rec.StartSpan("bench.analysis", 0, obs.Str("key", j.Key))
		sp = rec.StartSpan("bench.trace", root)
		tr, err = trace.RunObserved(j.prog, rec, sp)
		rec.EndSpan(sp)
	} else {
		tr, err = trace.Run(j.prog)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: tracing: %w", j.Key, err)
	}
	out.Trace = time.Since(start)
	out.Nodes = tr.Graph.NumNodes()

	start = time.Now()
	if rec != nil {
		sp = rec.StartSpan("bench.find", root)
		opts.Obs, opts.ObsParent = rec, sp
	}
	res := core.FindCtx(ctx, tr.Graph, opts)
	if rec != nil {
		rec.EndSpan(sp)
		rec.EndSpan(root)
	}
	out.Find = time.Since(start)
	out.Patterns = len(res.Patterns)
	out.Degraded = res.Degraded()
	out.SimplifiedNodes = res.SimplifiedNodes
	hits, misses, skips := res.CacheStats()
	out.CacheHits, out.CacheMisses, out.Requested = hits, misses, hits+misses+skips
	_, out.Prescreened = res.PrescreenStats()
	out.Pages = res.Graph.PageStats()
	out.Report, err = report.JSON(res)
	if cerr := res.Graph.CloseSpill(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: reporting: %w", j.Key, err)
	}
	out.Effort = effortOf(out.Nodes, res, out.Pages)
	return out, nil
}

func effortOf(traced int, res *core.Result, pages ddg.PageStats) effort {
	e := effort{
		TraceNodes:   traced,
		PoolSize:     res.PoolSize,
		Iterations:   res.Iterations,
		CensusChecks: res.PrescreenChecks,
		PageReads:    pages.Reads,
	}
	for _, ks := range res.SolverStats {
		e.SolverRuns += ks.Runs
		e.SolverEffort += ks.Nodes + ks.Propagations
	}
	return e
}

// efforts indexes a pass's outcomes' effort counts by analysis key.
func efforts(outs []*outcome) map[string]effort {
	m := make(map[string]effort, len(outs))
	for _, o := range outs {
		m[o.Key] = o.Effort
	}
	return m
}

// timesByKey indexes a pass's outcomes' wall times by analysis key.
func timesByKey(outs []*outcome) map[string]time.Duration {
	m := make(map[string]time.Duration, len(outs))
	for _, o := range outs {
		m[o.Key] = o.Total()
	}
	return m
}

// medianByKey returns each key's median time across passes.
func medianByKey(passes []map[string]time.Duration) map[string]time.Duration {
	samples := map[string][]float64{}
	for _, p := range passes {
		for k, d := range p {
			samples[k] = append(samples[k], float64(d))
		}
	}
	out := make(map[string]time.Duration, len(samples))
	for k, xs := range samples {
		out[k] = time.Duration(median(xs))
	}
	return out
}
