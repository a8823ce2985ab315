package main

import (
	"fmt"
	"sort"
	"time"

	"discovery/internal/obs"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them; what a "pass"
// and an "operation" are differs per workload (see README.md).
var endToEnd = []metricDef{
	{"pass_s", "s"},
	{"p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"ok_ratio", "ratio"},
}

// perLayer are the traced run's metrics, one group per layer of the
// system. A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"trace.execute_s", "s"},
	{"trace.finalize_s", "s"},
	{"trace.nodes", "count"},
	{"trace.nodes_per_s", "1/s"},
	{"ddg.spill_s", "s"},
	{"ddg.page_faults", "count"},
	{"ddg.page_evictions", "count"},
	{"ddg.page_reads", "count"},
	{"ddg.peak_resident_bytes", "bytes"},
	{"core.simplify_s", "s"},
	{"core.simplified_ratio", "ratio"},
	{"core.decompose_s", "s"},
	{"core.pool_size", "count"},
	{"core.subtract_s", "s"},
	{"core.fuse_s", "s"},
	{"core.merge_s", "s"},
	{"core.iterations", "count"},
	{"patterns.census_s", "s"},
	{"patterns.census_checks", "count"},
	{"patterns.prescreen_skip_ratio", "ratio"},
	{"patterns.match_other_s", "s"},
	{"cp.solve_s", "s"},
	{"cp.solver_runs", "count"},
	{"cp.effort", "count"},
	{"cp.sat_ratio", "ratio"},
	{"viewcache.hits", "count"},
	{"viewcache.misses", "count"},
	{"viewcache.hit_ratio", "ratio"},
	{"viewcache.generation_evictions", "count"},
	{"sched.tasks", "count"},
	{"sched.steals", "count"},
	{"sched.task_p99_ms", "ms"},
	{"server.queue_p50_ms", "ms"},
	{"server.queue_p99_ms", "ms"},
	{"server.service_ms", "ms"},
	{"server.http_ms", "ms"},
	{"server.store_hit_ratio", "ratio"},
	{"server.rejected_503", "count"},
	{"server.degraded", "count"},
	{"store.get_s", "s"},
	{"store.put_s", "s"},
	{"store.gets", "count"},
	{"store.puts", "count"},
	{"bench.operations", "count"},
	{"bench.trace_overhead", "ratio"},
}

// deterministicCounts are the per-layer counts that repeat exactly for the
// same code (checked pass against pass by oracle.counts); every other
// count is informational.
var deterministicCounts = []string{
	"trace.nodes", "core.pool_size", "core.iterations",
	"patterns.census_checks", "cp.solver_runs", "cp.effort", "ddg.page_reads",
}

// metrics is a set of named values restricted to one metric table.
type metrics struct {
	values map[string]float64
}

func newMetrics(defs []metricDef) *metrics {
	m := &metrics{values: map[string]float64{}}
	for _, d := range defs {
		m.values[d.Name] = 0
	}
	return m
}

// set records a value; a name outside the table is a bug in the caller.
func (m *metrics) set(name string, v float64) {
	if _, ok := m.values[name]; !ok {
		panic(fmt.Sprintf("perfbench: undeclared metric %q", name))
	}
	m.values[name] = v
}

func (m *metrics) add(name string, v float64) { m.set(name, m.values[name]+v) }

// spanTimes summarises a collector's spans by name: summed wall time,
// summed self time (wall minus the part of it child spans cover), and
// span counts.
type spanTimes struct {
	wall, self map[string]time.Duration
	count      map[string]int
}

func attribute(spans []obs.Span) spanTimes {
	st := spanTimes{wall: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{}}
	children := map[obs.SpanID][]obs.Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		st.wall[s.Name] += s.Wall
		st.count[s.Name]++
		st.self[s.Name] += s.Wall - covered(s, children[s.ID])
	}
	return st
}

// covered measures how much of parent's interval the union of its
// children's intervals covers. Children of one span may overlap (the
// finder's match tasks run on several workers), so overlaps count once.
func covered(parent obs.Span, kids []obs.Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	lo, hi := parent.Start, parent.Start.Add(parent.Wall)
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.Start.Add(k.Wall)
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	return total + cur.b.Sub(cur.a)
}

// histSum returns a histogram's sample sum from a registry snapshot,
// across all label sets of the family.
func histSum(h map[string]obs.HistogramSnapshot, family string) float64 {
	var sum float64
	for key, s := range h {
		if familyOf(key) == family {
			sum += s.Sum
		}
	}
	return sum
}

// familyOf strips a registry key's label set.
func familyOf(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '{' {
			return key[:i]
		}
	}
	return key
}

// counterSum sums a counter family across its label sets; with
// unlabeledOnly it takes the unlabeled series alone (the trace node
// counter has both a total and per-thread series).
func counterSum(c map[string]int64, family string, unlabeledOnly bool) int64 {
	var n int64
	for key, v := range c {
		if key == family || (!unlabeledOnly && familyOf(key) == family) {
			n += v
		}
	}
	return n
}

// finderLayers fills the trace/ddg/core/patterns/cp/viewcache metrics of
// a traced pass of direct analyses from the collector's spans and
// metrics and from the analyses' own results.
func finderLayers(m *metrics, c *obs.Collector, outs []*outcome) {
	st := attribute(c.Spans())
	m.set("trace.execute_s", secs(st.self["execute"]))
	m.set("trace.finalize_s", secs(st.self["finalize"]))
	m.set("core.simplify_s", secs(st.self["simplify"]))
	m.set("core.decompose_s", secs(st.self["decompose"]))
	m.set("core.subtract_s", secs(st.self["subtract"]))
	m.set("core.fuse_s", secs(st.self["fuse"]))
	m.set("core.merge_s", secs(st.self["merge"]))
	census := histSum(c.Metrics().Histograms(), obs.MetricPrescreenSeconds)
	m.set("patterns.census_s", census)
	// Census runs inside match tasks; solves are their child spans, so
	// the tasks' self time minus the census is view building plus the
	// matchers' structural checks.
	m.set("patterns.match_other_s", secs(st.self["match-task"])-census)
	m.set("cp.solve_s", secs(st.wall["solve"]))
	sat := 0
	for _, s := range c.Spans() {
		if v, _ := s.Attr("verdict"); s.Name == "solve" && v == "sat" {
			sat++
		}
	}
	if n := st.count["solve"]; n > 0 {
		m.set("cp.sat_ratio", float64(sat)/float64(n))
	}

	var nodes, simp, requested, prescreened, hits, misses float64
	for _, o := range outs {
		nodes += float64(o.Nodes)
		simp += float64(o.SimplifiedNodes)
		m.add("core.pool_size", float64(o.Effort.PoolSize))
		m.add("core.iterations", float64(o.Effort.Iterations))
		m.add("patterns.census_checks", float64(o.Effort.CensusChecks))
		m.add("cp.solver_runs", float64(o.Effort.SolverRuns))
		m.add("cp.effort", float64(o.Effort.SolverEffort))
		m.add("ddg.page_faults", float64(o.Pages.Faults))
		m.add("ddg.page_evictions", float64(o.Pages.Evictions))
		m.add("ddg.page_reads", float64(o.Pages.Reads))
		if p := float64(o.Pages.PeakResidentBytes); p > m.values["ddg.peak_resident_bytes"] {
			m.set("ddg.peak_resident_bytes", p)
		}
		hits += float64(o.CacheHits)
		misses += float64(o.CacheMisses)
		requested += float64(o.Requested)
		prescreened += float64(o.Prescreened)
	}
	m.set("trace.nodes", nodes)
	if t := st.wall["trace"]; t > 0 {
		m.set("trace.nodes_per_s", nodes/t.Seconds())
	}
	if nodes > 0 {
		m.set("core.simplified_ratio", simp/nodes)
	}
	if requested > 0 {
		m.set("patterns.prescreen_skip_ratio", prescreened/requested)
	}
	m.set("viewcache.hits", hits)
	m.set("viewcache.misses", misses)
	if hits+misses > 0 {
		m.set("viewcache.hit_ratio", hits/(hits+misses))
	}
	m.set("bench.operations", float64(len(outs)))
}
