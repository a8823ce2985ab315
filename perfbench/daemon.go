package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"discovery/internal/obs"
	"discovery/internal/server"
	"discovery/internal/starbench"
	"discovery/internal/store"
)

// The daemon workload: an in-process analysis daemon over a crash-safe
// disk store (the production "-store disk" path), driven over loopback
// HTTP in a closed loop by two clients, each waiting for its report before
// submitting again, as CI jobs and editors do. The store, admission queue,
// HTTP and warm-cache paths dominate here, and no ladder analysis touches
// them. The seeded mix reads and writes both the store and the view
// cache, so a gain for one use that costs the other shows:
//
//   - hit (60%): answered from the store before tracing;
//   - no_store (25%): bypasses the store, traces again and matches over
//     the view cache the warm-up filled;
//   - cold (15%): carries a never-seen max_view_groups, so it misses the
//     store, opens a fresh view-cache generation, runs in full and writes
//     back. The value is above the finder's default view-size gate of
//     10000 groups, which no analysis-input view comes near, so the answer
//     is the default one. (A never-seen solver_budget_ms would miss the
//     store too, but budgets are not part of the cache fingerprint, so it
//     would match over the warm generation.)
//
// The sequence is made of blocks of 320 requests, each holding every pair
// 12 times as a hit, 5 times as no_store and 3 times as cold, in an order
// the seed shuffles. Every block thus does the same work, and the seed
// moves only the order, not the mix; one block is the workload's pass.
const (
	clients       = 2
	coldMinGroups = 10000
)

// Per-pair request counts of one block, by class.
var perPair = [numClasses]int{12, 5, 3}

// Request classes.
const (
	classHit = iota
	classNoStore
	classCold
	numClasses
)

var classNames = [numClasses]string{"hit", "no_store", "cold"}

// wantStatus is the store status each class is answered with.
var wantStatus = [numClasses]string{"hit", "bypass", "miss"}

// daemonPairs are every Starbench benchmark × version, in registry order.
func daemonPairs() []jobSpec {
	var out []jobSpec
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			out = append(out, jobSpec{b.Name, v, 1})
		}
	}
	return out
}

// mix is the seed's request sequence, generated a block at a time.
type mix struct {
	seed   int64
	pairs  []jobSpec
	mu     sync.Mutex
	blocks map[int][]server.Request
}

func newMix(seed int64) *mix {
	return &mix{seed: seed, pairs: daemonPairs(), blocks: map[int][]server.Request{}}
}

// blockSize is the number of requests in one block.
func (m *mix) blockSize() int {
	return len(m.pairs) * (perPair[classHit] + perPair[classNoStore] + perPair[classCold])
}

// at returns request i of the sequence. Cold requests get a view-size gate
// no other request of the run has.
func (m *mix) at(i int) server.Request {
	n := m.blockSize()
	m.mu.Lock()
	block, ok := m.blocks[i/n]
	if !ok {
		block = m.block(i / n)
		m.blocks[i/n] = block
	}
	m.mu.Unlock()
	req := block[i%n]
	if classOf(req) == classCold {
		req.Options.MaxViewGroups = coldMinGroups + i + 1
	}
	return req
}

func (m *mix) block(b int) []server.Request {
	var out []server.Request
	for _, p := range m.pairs {
		for c := 0; c < numClasses; c++ {
			for k := 0; k < perPair[c]; k++ {
				req := server.Request{Bench: p.Bench, Version: string(p.Version), Options: server.RequestOptions{Verify: true}}
				switch c {
				case classNoStore:
					req.NoStore = true
				case classCold:
					req.Options.MaxViewGroups = coldMinGroups
				}
				out = append(out, req)
			}
		}
	}
	rng := rand.New(rand.NewSource(m.seed<<20 + int64(b)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func classOf(req server.Request) int {
	switch {
	case req.NoStore:
		return classNoStore
	case req.Options.MaxViewGroups != 0:
		return classCold
	}
	return classHit
}

// timedStore is the store.Store decorator the traced run times the
// daemon's store calls with; off, it only forwards.
type timedStore struct {
	store.Store
	rec *obs.Collector
	on  atomic.Bool
}

func (t *timedStore) Get(key string) (*store.Entry, bool, error) {
	if !t.on.Load() {
		return t.Store.Get(key)
	}
	sp := t.rec.StartSpan("bench.store.get", 0)
	defer t.rec.EndSpan(sp)
	return t.Store.Get(key)
}

func (t *timedStore) Put(e *store.Entry) error {
	if !t.on.Load() {
		return t.Store.Put(e)
	}
	sp := t.rec.StartSpan("bench.store.put", 0)
	defer t.rec.EndSpan(sp)
	return t.Store.Put(e)
}

// daemon is one running daemon and its client.
type daemon struct {
	dir    string
	disk   *store.Disk
	timed  *timedStore
	srv    *server.Server
	hs     *httptest.Server
	client *http.Client
}

func startDaemon(tmp string, rec *obs.Collector) (*daemon, error) {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	disk, err := store.NewDisk(dir)
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, disk: disk, timed: &timedStore{Store: disk, rec: rec}}
	d.srv = server.New(server.Config{MaxInFlight: clients, SchedWorkers: clients, Store: d.timed})
	d.hs = httptest.NewServer(d.srv.Handler())
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	return d, nil
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.hs.Close()
	d.srv.Close()
	d.disk.Close()
	os.RemoveAll(d.dir)
}

// sample is one completed request as the client saw it.
type sample struct {
	class    int
	status   string // store status of the answer
	latency  time.Duration
	done     time.Time
	queueMS  int64
	serviceM int64
	code     int
	degraded bool
	report   reportSummary
}

// reportSummary is the part of a computed report the layer metrics use.
type reportSummary struct {
	OriginalNodes   int `json:"original_nodes"`
	SimplifiedNodes int `json:"simplified_nodes"`
	Iterations      int `json:"iterations"`
	PoolSize        int `json:"pool_size"`
	Diagnostics     struct {
		Solver map[string]struct {
			Nodes        int64 `json:"nodes"`
			Propagations int64 `json:"propagations"`
		} `json:"solver"`
	} `json:"diagnostics"`
}

// post sends one request and checks the answer: a 200, not degraded, with
// the pinned answer for its pair.
func (d *daemon) post(req server.Request, or *oracle, rec *obs.Collector) (sample, error) {
	s := sample{class: classOf(req)}
	body, err := json.Marshal(req)
	if err != nil {
		return s, err
	}
	var sp obs.SpanID
	if rec != nil {
		sp = rec.StartSpan("bench.request", 0, obs.Str("class", classNames[s.class]))
	}
	start := time.Now()
	resp, err := d.client.Post(d.hs.URL+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return s, fmt.Errorf("POST /analyze: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	s.latency = s.done.Sub(start)
	if rec != nil {
		rec.EndSpan(sp)
	}
	if err != nil {
		return s, fmt.Errorf("reading response: %w", err)
	}
	s.code = resp.StatusCode
	key := analysisKey(req.Bench, req.Version, 1)
	if !or.check(s.code == http.StatusOK, "%s: HTTP %d", key, s.code) {
		return s, nil
	}
	var r server.Response
	if err := json.Unmarshal(data, &r); err != nil {
		or.check(false, "%s: decoding response: %v", key, err)
		return s, nil
	}
	s.status = r.Store.Status
	s.queueMS, s.serviceM = r.Diagnostics.QueueMS, r.Diagnostics.ElapsedMS
	s.degraded = r.Diagnostics.Degraded || r.Diagnostics.Interrupted
	or.check(!s.degraded, "%s: degraded answer", key)
	or.analysis(key, r.Diagnostics.Patterns, r.Report)
	if rec != nil && s.status != "hit" {
		if err := json.Unmarshal(r.Report, &s.report); err != nil {
			or.check(false, "%s: decoding report: %v", key, err)
		}
	}
	return s, nil
}

// drive runs the closed loop until the deadline: each client takes the
// next request of the sequence, waits for its answer, and repeats.
func (d *daemon) drive(seq *mix, next *atomic.Int64, until time.Time, or *oracle, rec *obs.Collector) ([]sample, error) {
	var mu sync.Mutex
	var all []sample
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(until) {
				s, err := d.post(seq.at(int(next.Add(1)-1)), or, rec)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, firstErr
}

// warm sends one default-options request per pair through both clients,
// filling the store and the default cache generation before timing.
func (d *daemon) warm(or *oracle) error {
	pairs := daemonPairs()
	var next atomic.Int64
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			for {
				i := int(next.Add(1) - 1)
				if i >= len(pairs) {
					errs <- nil
					return
				}
				p := pairs[i]
				req := server.Request{Bench: p.Bench, Version: string(p.Version), Options: server.RequestOptions{Verify: true}}
				if _, err := d.post(req, or, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var first error
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func runDaemon(ctx context.Context, cfg config, or *oracle) (*result, error) {
	rec := obs.NewCollector()
	// Each set-up starts a fresh daemon; the earlier ones are closed at
	// the end, so that closing is not timed as set-up. The last one is
	// measured.
	var d *daemon
	var started []*daemon
	defer func() {
		for _, s := range started {
			s.close()
		}
	}()
	setup, err := repeatSetup(cfg.setups, func() error {
		var err error
		if d, err = startDaemon(cfg.tmp, rec); err != nil {
			return err
		}
		started = append(started, d)
		return d.warm(or)
	})
	if err != nil {
		return nil, err
	}

	res := newResult()
	res.e2e.set("setup_s", setup)
	seq := newMix(cfg.seed)
	var next atomic.Int64
	if !cfg.trace {
		start := time.Now()
		samples, err := d.drive(seq, &next, start.Add(cfg.seconds), or, nil)
		if err != nil {
			return nil, err
		}
		daemonEndToEnd(res, samples, start, seq.blockSize())
		return res, nil
	}

	// Traced run: the first half untraced, the second with the store
	// decorator timing every call, a span around every request, and the
	// daemon's /metrics registry and /stats read before and after.
	half := cfg.seconds / 2
	start := time.Now()
	plain, err := d.drive(seq, &next, start.Add(half), or, nil)
	if err != nil {
		return nil, err
	}
	plainRate := float64(len(plain)) / time.Since(start).Seconds()

	reg := d.srv.Metrics()
	c0, h0 := reg.Counters(), reg.Histograms()
	s0, err := d.stats()
	if err != nil {
		return nil, err
	}
	d.timed.on.Store(true)
	start = time.Now()
	traced, err := d.drive(seq, &next, start.Add(cfg.seconds-half), or, rec)
	if err != nil {
		return nil, err
	}
	tracedRate := float64(len(traced)) / time.Since(start).Seconds()
	d.timed.on.Store(false)
	s1, err := d.stats()
	if err != nil {
		return nil, err
	}
	daemonLayers(res.layers, rec, reg, c0, h0, s1.Cache.Resets-s0.Cache.Resets, s1.Rejected-s0.Rejected, traced)
	res.layers.set("bench.trace_overhead", plainRate/tracedRate-1)
	return res, nil
}

// statsDoc is the part of /stats the benchmark reads.
type statsDoc struct {
	Rejected int64 `json:"rejected"`
	Cache    struct {
		Resets int `json:"Resets"`
	} `json:"cache"`
}

func (d *daemon) stats() (statsDoc, error) {
	var s statsDoc
	resp, err := d.client.Get(d.hs.URL + "/stats")
	if err != nil {
		return s, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("decoding /stats: %w", err)
	}
	return s, nil
}

// daemonEndToEnd fills the daemon's end-to-end metrics and named figures.
func daemonEndToEnd(res *result, samples []sample, start time.Time, block int) {
	var all []float64
	var byClass [numClasses][]float64
	realised := map[string]int{}
	mismatched := 0
	for _, s := range samples {
		l := ms(s.latency)
		all = append(all, l)
		byClass[s.class] = append(byClass[s.class], l)
		realised[s.status]++
		if s.status != wantStatus[s.class] {
			mismatched++
		}
	}
	// A pass is a block's worth of completions; the median over the run's
	// blocks keeps a burst of load on the shared machine from moving it.
	done := make([]time.Time, len(samples))
	for i, s := range samples {
		done[i] = s.done
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	var blocks []float64
	for from := start; len(done) >= block; done = done[block:] {
		blocks = append(blocks, done[block-1].Sub(from).Seconds())
		from = done[block-1]
	}
	rate := float64(len(samples)) / time.Since(start).Seconds()
	if len(blocks) == 0 {
		blocks = append(blocks, float64(block)/rate)
	}
	res.e2e.set("pass_s", median(blocks))
	res.detail["block_times_s"] = blocks
	// The gated latency is the store-hit median. The median over all
	// requests sits where the hit class (60%) meets the computing ones,
	// at the hits' 83rd percentile, and moves with how hits interleave
	// with analyses; it is on the detail line as req_p50_ms.
	res.e2e.set("p50_ms", median(byClass[classHit]))
	res.detail["req_p50_ms"] = median(all)
	res.detail["req_p99_ms"] = quantile(all, 0.99)
	res.detail["req_p99_beyond"] = beyond(all, 0.99)
	res.detail["req_samples"] = len(all)
	res.detail["req_per_s"] = rate
	res.detail["hit_p50_ms"] = median(byClass[classHit])
	res.detail["warm_p50_ms"] = median(byClass[classNoStore])
	res.detail["cold_p50_ms"] = median(byClass[classCold])
	shares := map[string]float64{}
	counts := map[string]int{}
	for c := 0; c < numClasses; c++ {
		counts[classNames[c]] = len(byClass[c])
		shares[classNames[c]] = float64(len(byClass[c])) / float64(max(len(samples), 1))
	}
	res.detail["class_counts"] = counts
	res.detail["class_shares"] = shares
	res.detail["store_status_counts"] = realised
	res.detail["class_status_mismatches"] = mismatched
}

// daemonLayers fills the per-layer metrics of the traced half from the
// daemon's registry deltas, /stats deltas, the responses' diagnostics and
// reports, and the benchmark's own spans. The daemon exports no per-phase
// spans without per-request phase trees, so the finder's phase times,
// trace phase times and sat ratio stay 0 here.
func daemonLayers(m *metrics, rec *obs.Collector, reg *obs.Registry, c0 map[string]int64, h0 map[string]obs.HistogramSnapshot, evictions int, rejected int64, samples []sample) {
	c1, h1 := reg.Counters(), reg.Histograms()
	dc := func(family string, unlabeledOnly bool) float64 {
		return float64(counterSum(c1, family, unlabeledOnly) - counterSum(c0, family, unlabeledOnly))
	}
	dh := func(family string) float64 {
		return histSum(h1, family) - histSum(h0, family)
	}
	m.set("trace.nodes", dc(obs.MetricTraceNodes, true))
	m.set("trace.nodes_per_s", reg.Gauges()[obs.MetricTraceThroughput])
	m.set("patterns.census_s", dh(obs.MetricPrescreenSeconds))
	m.set("patterns.census_checks", dc(obs.MetricPrescreenChecks, false))
	hits, misses, skips := dc(obs.MetricCacheHits, false), dc(obs.MetricCacheMisses, false), dc(obs.MetricCacheSkips, false)
	if hits+misses+skips > 0 {
		m.set("patterns.prescreen_skip_ratio", dc(obs.MetricPrescreenSkips, false)/(hits+misses+skips))
	}
	m.set("cp.solve_s", dh(obs.MetricSolveSeconds))
	m.set("cp.solver_runs", dc(obs.MetricSolverRuns, false))
	m.set("viewcache.hits", hits)
	m.set("viewcache.misses", misses)
	if hits+misses > 0 {
		m.set("viewcache.hit_ratio", hits/(hits+misses))
	}
	m.set("viewcache.generation_evictions", float64(evictions))
	m.set("sched.tasks", dc(obs.MetricSchedTasks, false))
	m.set("sched.steals", dc(obs.MetricSchedSteals, false))
	m.set("sched.task_p99_ms", 1000*histQuantile(h0[obs.MetricSchedTaskSeconds], h1[obs.MetricSchedTaskSeconds], 0.99))

	var queue []float64
	var service, http, orig, simp float64
	hitsSeen := 0
	for _, s := range samples {
		if s.code == 503 {
			continue
		}
		queue = append(queue, float64(s.queueMS))
		service += float64(s.serviceM)
		http += ms(s.latency) - float64(s.queueMS) - float64(s.serviceM)
		if s.status == "hit" {
			hitsSeen++
		}
		if s.degraded {
			m.add("server.degraded", 1)
		}
		if s.status != "hit" {
			r := s.report
			orig += float64(r.OriginalNodes)
			simp += float64(r.SimplifiedNodes)
			m.add("core.pool_size", float64(r.PoolSize))
			m.add("core.iterations", float64(r.Iterations))
			for _, k := range r.Diagnostics.Solver {
				m.add("cp.effort", float64(k.Nodes+k.Propagations))
			}
		}
	}
	if n := float64(len(queue)); n > 0 {
		m.set("server.queue_p50_ms", quantile(queue, 0.5))
		m.set("server.queue_p99_ms", quantile(queue, 0.99))
		m.set("server.service_ms", service/n)
		m.set("server.http_ms", http/n)
		m.set("server.store_hit_ratio", float64(hitsSeen)/n)
	}
	if orig > 0 {
		m.set("core.simplified_ratio", simp/orig)
	}
	m.set("server.rejected_503", float64(rejected))

	st := attribute(rec.Spans())
	m.set("store.get_s", secs(st.wall["bench.store.get"]))
	m.set("store.put_s", secs(st.wall["bench.store.put"]))
	m.set("store.gets", float64(st.count["bench.store.get"]))
	m.set("store.puts", float64(st.count["bench.store.put"]))
	m.set("bench.operations", float64(len(samples)))
}

// histQuantile estimates the q-quantile of the samples a histogram gained
// between two snapshots, as the upper bound of the bucket it falls in.
func histQuantile(before, after obs.HistogramSnapshot, q float64) float64 {
	bounds := obs.HistogramBounds()
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i]
		if i < len(before.Counts) {
			delta[i] -= before.Counts[i]
		}
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i, n := range delta {
		cum += n
		if float64(cum) >= q*float64(total) {
			return bounds[min(i, len(bounds)-1)]
		}
	}
	return bounds[len(bounds)-1]
}
