package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"discovery/internal/obs"
)

func TestMixSequenceIsSeeded(t *testing.T) {
	a, b, c := newMix(7), newMix(7), newMix(8)
	n := 3 * a.blockSize()
	differs := false
	counts := map[string]int{}
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		r := a.at(i)
		if !reflect.DeepEqual(r, b.at(i)) {
			t.Fatalf("request %d differs between two sequences of seed 7: %+v vs %+v", i, r, b.at(i))
		}
		if !reflect.DeepEqual(r, c.at(i)) {
			differs = true
		}
		counts[r.Bench+"/"+r.Version+"/"+classNames[classOf(r)]]++
		if classOf(r) == classCold {
			if seen[r.Options.MaxViewGroups] {
				t.Fatalf("cold request %d repeats view-size gate %d", i, r.Options.MaxViewGroups)
			}
			seen[r.Options.MaxViewGroups] = true
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 give the same sequence")
	}
	// Every block holds each pair 12 times as a hit, 5 as no_store and 3
	// as cold: 60%, 25% and 15% of the requests.
	for _, p := range daemonPairs() {
		for c, want := range perPair {
			key := p.Bench + "/" + string(p.Version) + "/" + classNames[c]
			if counts[key] != 3*want {
				t.Errorf("%s: %d requests in 3 blocks, want %d", key, counts[key], 3*want)
			}
		}
	}
	if a.blockSize() != 320 {
		t.Errorf("block of %d requests, want 320", a.blockSize())
	}
}

func TestPlansAreSeeded(t *testing.T) {
	r1, p1 := ladderPlan(3)
	r2, p2 := ladderPlan(3)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("ladder plan differs for the same seed")
	}
	if len(r1) != 15 || len(p1) != 16 {
		t.Fatalf("ladder plan has %d rungs and %d pairs, want 15 and 16", len(r1), len(p1))
	}
	r3, _ := ladderPlan(4)
	if reflect.DeepEqual(r1, r3) {
		t.Error("seeds 3 and 4 give the same rung order")
	}
	keys := func(specs []jobSpec) []string {
		var out []string
		for _, s := range specs {
			out = append(out, s.key())
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(keys(r1), keys(r3)) {
		t.Error("seeds 3 and 4 run different rungs")
	}
	if !reflect.DeepEqual(outOfCorePlan(5), outOfCorePlan(5)) {
		t.Error("out-of-core plan differs for the same seed")
	}
}

// TestBenchmarkJSONMatchesTables checks that BENCHMARK.json declares
// exactly the workloads and metrics the program emits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program emits %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program emits %v", b.PerLayer, perLayer)
	}
	for _, name := range deterministicCounts {
		if _, ok := newMetrics(perLayer).values[name]; !ok {
			t.Errorf("deterministic count %q is not a per-layer metric", name)
		}
	}
}

// TestRunEmitsEveryMetric runs the daemon workload briefly in both modes
// and checks the result line names every declared metric.
func TestRunEmitsEveryMetric(t *testing.T) {
	p, err := loadPins(pinsJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		cfg := config{seed: 1, seconds: time.Second, trace: traced, tmp: t.TempDir(), setups: 1}
		or := newOracle(p)
		res, err := runDaemon(context.Background(), cfg, or)
		if err != nil {
			t.Fatal(err)
		}
		line := emitLine(t, cfg, res, or)
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", traced, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := line.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s missing or wrong unit (%+v)", traced, d.Name, m)
			}
		}
		if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d: %v", traced, line.Correct, line.Attempted, line.Failed, or.errors())
		}
	}
}

type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func emitLine(t *testing.T, cfg config, res *result, or *oracle) resultLine {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := emit(f, "daemon", cfg, res, or); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		t.Fatal(err)
	}
	return line
}

func TestOracleFlagsCorruptedPins(t *testing.T) {
	p, err := loadPins(pinsJSON)
	if err != nil {
		t.Fatal(err)
	}
	j, err := newJob(jobSpec{"md5", "seq", 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := analyze(context.Background(), j, findOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if or := newOracle(p); !or.analysis(out.Key, out.Patterns, out.Report) {
		t.Fatalf("true answer rejected: %v", or.errors())
	}

	corrupt := func(edit func(*pins)) *oracle {
		var c pins
		if err := json.Unmarshal(pinsJSON, &c); err != nil {
			t.Fatal(err)
		}
		edit(&c)
		return newOracle(&c)
	}
	answer := corrupt(func(c *pins) {
		pn := c.Analyses[out.Key]
		pn.Answer = "0000000000000000"
		c.Analyses[out.Key] = pn
	})
	if answer.analysis(out.Key, out.Patterns, out.Report) || answer.failed != 1 {
		t.Error("corrupted answer hash not flagged")
	}
	count := corrupt(func(c *pins) {
		pn := c.Analyses[out.Key]
		pn.Patterns++
		c.Analyses[out.Key] = pn
	})
	if count.analysis(out.Key, out.Patterns, out.Report) {
		t.Error("corrupted pattern count not flagged")
	}
	missed := corrupt(func(c *pins) { c.Table3.Missed = c.Table3.Missed[1:] })
	if missed.table3(p.Table3) {
		t.Error("corrupted Table 3 misses not flagged")
	}

	or := newOracle(p)
	a := map[string]effort{"x": {SolverRuns: 3}}
	if or.counts("same", a, map[string]effort{"x": {SolverRuns: 3}}) == false {
		t.Error("equal counts flagged")
	}
	if or.counts("differ", a, map[string]effort{"x": {SolverRuns: 4}}) {
		t.Error("differing counts not flagged")
	}
	other := []byte(`{"elapsed_ms": 5}`)
	if !or.sameBytes("elapsed", other, []byte(`{"elapsed_ms": 9}`)) || or.sameBytes("bytes", other, []byte(`{"elapsed_ms": 5} `)) {
		t.Error("byte comparison must ignore only wall-clock fields")
	}
}

func TestSelfTimeCountsOverlapsOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(id, parent obs.SpanID, name string, from, to int) obs.Span {
		return obs.Span{ID: id, Parent: parent, Name: name, Start: t0.Add(time.Duration(from) * time.Millisecond), Wall: time.Duration(to-from) * time.Millisecond}
	}
	st := attribute([]obs.Span{
		at(1, 0, "match", 0, 100),
		at(2, 1, "task", 10, 40),
		at(3, 1, "task", 30, 60),  // overlaps the first task
		at(4, 1, "task", 90, 120), // runs past its parent
	})
	if got := st.self["match"]; got != 40*time.Millisecond {
		t.Errorf("match self time %v, want 40ms", got)
	}
	if got := st.wall["task"]; got != 90*time.Millisecond {
		t.Errorf("task wall time %v, want 90ms", got)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if median(xs) != 2.5 || quantile(xs, 0) != 1 || quantile(xs, 1) != 4 || beyond(xs, 0.5) != 2 {
		t.Errorf("median %v, q0 %v, q1 %v, beyond %d", median(xs), quantile(xs, 0), quantile(xs, 1), beyond(xs, 0.5))
	}
	if s := logLogSlope([]int{10, 100}, []time.Duration{time.Second, 100 * time.Second}); s < 1.999 || s > 2.001 {
		t.Errorf("slope %v, want 2", s)
	}
}
