// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three workloads in a single process, checks every analysis answer
// against pinned expectations, and prints the metrics as the last line of
// standard output:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 they are the per-layer ones, taken from a
// separate traced run. README.md lists the workloads and metrics and why
// each was chosen. Run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload ladder --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// tmp is the run's scratch directory (disk store, spill files).
	tmp string
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
}

// result is what a workload reports.
type result struct {
	e2e    *metrics
	layers *metrics
	// detail holds the workload's own named figures (ladder_s,
	// req_p99_ms, ...) printed on the line before the result.
	detail map[string]any
}

func newResult() *result {
	return &result{e2e: newMetrics(endToEnd), layers: newMetrics(perLayer), detail: map[string]any{}}
}

var workloads = map[string]func(context.Context, config, *oracle) (*result, error){
	"ladder":    runLadder,
	"daemon":    runDaemon,
	"outofcore": runOutOfCore,
}

func main() {
	workload := flag.String("workload", "", "workload to run: ladder, daemon or outofcore")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end ones")
	writePins := flag.String("write-pins", "", "recompute every pinned answer and write them to this file, then exit")
	flag.Parse()

	if *writePins != "" {
		if err := regeneratePins(*writePins); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	p, err := loadPins(pinsJSON)
	if err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1, tmp: tmp, setups: 5}
	or := newOracle(p)
	res, err := run(context.Background(), cfg, or)
	os.RemoveAll(tmp)
	if err != nil {
		fatal(err)
	}
	if err := emit(os.Stdout, *workload, cfg, res, or); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// emit prints the detail line and, last, the result line.
func emit(w *os.File, workload string, cfg config, res *result, or *oracle) error {
	attempted, failed := or.totals()
	for _, e := range or.errors() {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	defs, m := endToEnd, res.e2e
	if cfg.trace {
		defs, m = perLayer, res.layers
	} else {
		if attempted > 0 {
			m.set("ok_ratio", float64(attempted-failed)/float64(attempted))
		}
		m.set("peak_rss_mb", peakRSSMB())
		res.detail["fail_rate"] = float64(failed) / float64(max(attempted, 1))
		res.detail["peak_rss_mb"] = m.values["peak_rss_mb"]
		res.detail["setup_s"] = m.values["setup_s"]
	}
	res.detail["workload"] = workload
	res.detail["seed"] = cfg.seed
	res.detail["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.detail["deterministic_counts"] = deterministicCounts
	detail, err := json.Marshal(map[string]any{"detail": res.detail})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(detail))

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{m.values[d.Name], d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// repeatSetup runs set-up n times and returns the median time in seconds.
// Memory is returned to the runtime between repetitions so each starts
// from the same state.
func repeatSetup(n int, fn func() error) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// another reports whether the run has time for one more pass of the
// average length so far; the first pass always runs.
func another(start time.Time, budget time.Duration, passes int) bool {
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(passes) <= budget
}
