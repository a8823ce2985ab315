package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"discovery/internal/obs"
	"discovery/internal/report"
	"discovery/internal/starbench"
)

// The ladder workload: cold analyses along a Figure 7 scale ladder, where
// the finder's superlinear layers (census, view building, subtract)
// dominate, plus the Table 3 rung, every Starbench benchmark × version at
// its analysis input. The rungs are the benchmarks whose finding time
// grows fastest with DDG size (ray-rot, c-ray) next to two that stay
// close to linear (md5, kmeans); ray-rot stops at ×4 because ×8 alone
// takes longer than a whole pass.
var ladderRungs = []struct {
	bench   string
	version starbench.Version
	factors []int64
}{
	{"ray-rot", starbench.Pthreads, []int64{1, 2, 4}},
	{"c-ray", starbench.Seq, []int64{1, 2, 4, 8}},
	{"md5", starbench.Seq, []int64{1, 2, 4, 8}},
	{"kmeans", starbench.Pthreads, []int64{1, 2, 4, 8}},
}

// ladderPlan returns the seed's rung order and Table 3 pair order.
func ladderPlan(seed int64) (rungs, pairs []jobSpec) {
	for _, r := range ladderRungs {
		for _, f := range r.factors {
			rungs = append(rungs, jobSpec{r.bench, r.version, f})
		}
	}
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			pairs = append(pairs, jobSpec{b.Name, v, 1})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(rungs), func(i, j int) { rungs[i], rungs[j] = rungs[j], rungs[i] })
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return rungs, pairs
}

// ladderPass is one pass's measurements.
type ladderPass struct {
	rungs  []*outcome
	total  time.Duration   // Σ trace+find over the rungs
	table3 []time.Duration // per Table 3 rung, Evaluate wall time
}

func runLadder(ctx context.Context, cfg config, or *oracle) (*result, error) {
	rungSpecs, pairSpecs := ladderPlan(cfg.seed)
	var rungs []*job
	setup, err := repeatSetup(cfg.setups, func() error {
		var err error
		if rungs, err = buildJobs(rungSpecs); err != nil {
			return err
		}
		// Warm-up: one cold analysis of each ×1 rung, so lazy
		// initialisation and the allocator's first growth are paid here.
		for _, j := range rungs {
			if j.Factor != 1 {
				continue
			}
			out, err := analyze(ctx, j, findOptions(), nil)
			if err != nil {
				return err
			}
			or.analysis(out.Key, out.Patterns, out.Report)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := newResult()
	res.e2e.set("setup_s", setup)
	start := time.Now()
	if !cfg.trace {
		var passes []*ladderPass
		for {
			p, err := ladderRungPass(ctx, rungs, or, nil)
			if err != nil {
				return nil, err
			}
			// The Table 3 rung is short and its time spreads, so each
			// pass times it three times.
			for k := 0; k < 3; k++ {
				times, t3, err := table3Pass(pairSpecs, or)
				if err != nil {
					return nil, err
				}
				or.table3(t3)
				p.table3 = append(p.table3, sum(times))
			}
			passes = append(passes, p)
			if !another(start, cfg.seconds, len(passes)) {
				break
			}
		}
		for i := 1; i < len(passes); i++ {
			or.counts("ladder pass", efforts(passes[0].rungs), efforts(passes[i].rungs))
		}
		// Per-rung medians across passes, so a burst of load on the shared
		// machine that slows one pass does not move the figures.
		var rungTimes []map[string]time.Duration
		var t3 []float64
		for _, p := range passes {
			rungTimes = append(rungTimes, timesByKey(p.rungs))
			t3 = append(t3, durSecs(p.table3)...)
		}
		typical := medianByKey(rungTimes)
		var sizes []int
		var times []time.Duration
		var total time.Duration
		for _, o := range passes[0].rungs {
			sizes = append(sizes, o.Nodes)
			times = append(times, typical[o.Key])
			total += typical[o.Key]
		}
		res.e2e.set("pass_s", secs(total))
		res.e2e.set("p50_ms", 1000*median(t3))
		res.detail["ladder_s"] = secs(total)
		res.detail["find_slope"] = logLogSlope(sizes, times)
		res.detail["table3_s"] = median(t3)
		res.detail["pass_times_s"] = passTimes(passes)
		res.detail["table3_times_s"] = t3
		res.detail["counts"] = efforts(passes[0].rungs)
		return res, nil
	}

	// Traced run: one untraced pass over the rungs, then one traced pass;
	// the layers come from the traced pass, the overhead from the pair.
	plain, err := ladderRungPass(ctx, rungs, or, nil)
	if err != nil {
		return nil, err
	}
	c := obs.NewCollector()
	traced, err := ladderRungPass(ctx, rungs, or, c)
	if err != nil {
		return nil, err
	}
	or.counts("ladder traced pass", efforts(plain.rungs), efforts(traced.rungs))
	finderLayers(res.layers, c, traced.rungs)
	res.layers.set("bench.trace_overhead", secs(traced.total)/secs(plain.total)-1)
	res.detail["counts"] = efforts(traced.rungs)
	return res, nil
}

func passTimes(passes []*ladderPass) []float64 {
	var out []float64
	for _, p := range passes {
		out = append(out, secs(p.total))
	}
	return out
}

// ladderRungPass runs every rung once, cold, checking each answer.
func ladderRungPass(ctx context.Context, rungs []*job, or *oracle, rec *obs.Collector) (*ladderPass, error) {
	p := &ladderPass{}
	for _, j := range rungs {
		out, err := analyze(ctx, j, findOptions(), rec)
		if err != nil {
			return nil, err
		}
		or.analysis(out.Key, out.Patterns, out.Report)
		or.check(!out.Degraded, "%s: degraded result", out.Key)
		p.rungs = append(p.rungs, out)
		p.total += out.Total()
	}
	return p, nil
}

// table3Pass evaluates every pair as starbench.Evaluate scores them,
// checking each pair's answer. It returns each pair's wall time and the
// Table 3 totals with the named misses.
func table3Pass(pairs []jobSpec, or *oracle) ([]time.Duration, table3Pin, error) {
	var times []time.Duration
	var t table3Pin
	for _, s := range pairs {
		start := time.Now()
		r, err := starbench.Evaluate(starbench.ByName(s.Bench), s.Version, findOptions())
		if err != nil {
			return nil, t, fmt.Errorf("table 3 %s: %w", s.key(), err)
		}
		times = append(times, time.Since(start))
		for _, er := range r.Expectations {
			t.Expected++
			switch {
			case er.Missed && !er.Found:
				t.Missed = append(t.Missed, fmt.Sprintf("%s/%s:%s", s.Bench, s.Version, er.Label))
			case !er.Missed && er.Found:
				t.Found++
			}
		}
		doc, err := report.JSON(r.Finder)
		if err != nil {
			return nil, t, err
		}
		or.analysis(s.key(), len(r.Finder.Patterns), doc)
	}
	sort.Strings(t.Missed)
	return times, t, nil
}
