package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"sync"
)

// Pinned expectations: the answer every analysis the workloads run must
// give. Regenerate with --write-pins after a deliberate output change and
// review the diff like code.
//
//go:embed pins.json
var pinsJSON []byte

// pin is one analysis's expected answer.
type pin struct {
	Patterns int `json:"patterns"`
	// Answer hashes the report.JSON document minus its cost accounting
	// (diagnostics.solver and diagnostics.cache): the patterns, DDG sizes,
	// iteration and pool counts and degradation flags a user acts on.
	// Solver effort and cache traffic are left out so that an optimisation
	// which does less work still gives the pinned answer.
	Answer string `json:"answer"`
}

// table3Pin is the paper's Table 3 outcome: 36 of 42 expected patterns,
// with the six misses the paper names.
type table3Pin struct {
	Found    int      `json:"found"`
	Expected int      `json:"expected"`
	Missed   []string `json:"missed"`
}

// bigTracePin describes the out-of-core simplification input and output.
type bigTracePin struct {
	Nodes          int    `json:"nodes"`
	Arcs           int    `json:"arcs"`
	Simplified     int    `json:"simplified"`
	SimplifiedArcs int    `json:"simplified_arcs"`
	Fingerprint    string `json:"fingerprint"`
}

// pins is the whole pinned-expectation file. Analyses are keyed
// "bench/version/xF" (F the input scale factor).
type pins struct {
	Analyses map[string]pin `json:"analyses"`
	Table3   table3Pin      `json:"table3"`
	BigTrace bigTracePin    `json:"bigtrace"`
}

func loadPins(data []byte) (*pins, error) {
	var p pins
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("parsing pins: %w", err)
	}
	if len(p.Analyses) == 0 {
		return nil, fmt.Errorf("pins hold no analyses; regenerate with --write-pins")
	}
	return &p, nil
}

func analysisKey(bench, version string, factor int64) string {
	return fmt.Sprintf("%s/%s/x%d", bench, version, factor)
}

var elapsedRE = regexp.MustCompile(`"elapsed_ms": \d+`)

// normalizeReport zeroes the wall-clock fields of a report.JSON document,
// the only bytes two runs of the same analysis may differ in.
func normalizeReport(doc []byte) []byte {
	return elapsedRE.ReplaceAll(doc, []byte(`"elapsed_ms": 0`))
}

// answerHash hashes a report.JSON document without its cost accounting
// (see pin.Answer). Keys are re-marshalled in sorted order, so the hash
// does not depend on the producer's formatting.
func answerHash(doc []byte) (string, error) {
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		return "", fmt.Errorf("parsing report: %w", err)
	}
	if d, ok := m["diagnostics"].(map[string]any); ok {
		delete(d, "solver")
		delete(d, "cache")
	}
	canon, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:8]), nil
}

// oracle counts checked operations and failures. Safe for concurrent use.
type oracle struct {
	pins *pins

	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

func newOracle(p *pins) *oracle { return &oracle{pins: p} }

// check records one checked operation, failed unless ok.
func (o *oracle) check(ok bool, format string, args ...any) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if !ok {
		o.failed++
		if len(o.errs) < 20 {
			o.errs = append(o.errs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// analysis checks one analysis's report against its pin.
func (o *oracle) analysis(key string, patterns int, doc []byte) bool {
	want, ok := o.pins.Analyses[key]
	if !ok {
		return o.check(false, "%s: no pinned answer", key)
	}
	got, err := answerHash(doc)
	if err != nil {
		return o.check(false, "%s: %v", key, err)
	}
	return o.check(patterns == want.Patterns && got == want.Answer,
		"%s: %d patterns, answer %s; pinned %d, %s", key, patterns, got, want.Patterns, want.Answer)
}

// sameBytes checks that a paged run reproduced the resident report byte
// for byte (wall-clock fields aside).
func (o *oracle) sameBytes(what string, got, want []byte) bool {
	return o.check(bytes.Equal(normalizeReport(got), normalizeReport(want)),
		"%s: report differs from the resident run", what)
}

// table3 checks a Table 3 rung's totals and named misses.
func (o *oracle) table3(got table3Pin) bool {
	want := o.pins.Table3
	return o.check(got.Found == want.Found && got.Expected == want.Expected &&
		strings.Join(got.Missed, ",") == strings.Join(want.Missed, ","),
		"table 3: found %d of %d, missed %v; pinned %d of %d, missed %v",
		got.Found, got.Expected, got.Missed, want.Found, want.Expected, want.Missed)
}

// counts checks that two passes agree exactly on the deterministic effort
// counts of every analysis they share.
func (o *oracle) counts(what string, a, b map[string]effort) bool {
	ok := len(a) == len(b)
	var bad string
	for k, x := range a {
		if y, found := b[k]; !found || x != y {
			ok = false
			bad = fmt.Sprintf("%s: %+v vs %+v", k, x, y)
			break
		}
	}
	return o.check(ok, "%s: deterministic counts differ between passes (%s)", what, bad)
}

// totals returns the number of checked operations and of failures.
func (o *oracle) totals() (attempted, failed int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.attempted, o.failed
}

// errors returns the recorded failure messages.
func (o *oracle) errors() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.errs...)
}
