package trace_test

// Golden DDG identities: the committed reference for what the tracer
// builds. Every Starbench benchmark × version at its analysis input, the
// 8-thread stress inputs, and every pthreads version at the ×2 and ×4
// rungs of the Figure 7 ladder (experiments.ScaleParams) is traced and
// reduced to its node and arc counts, its Graph.Fingerprint, and a
// SHA-256 of the fingerprint helper's full rendering (op, pos, thread,
// scope chain, succ/pred order). The
// same four values are pinned for core.Simplify's output on each graph,
// so a change to the simplifier or to InducedSubgraph that moves a node,
// an arc or the pred order fails here too (Fingerprint alone does not
// cover pred order; the rendering does). Any change that alters a DDG
// fails here; a deliberate one is accepted with
// `go test ./internal/trace -update` after reviewing why the graphs moved.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/experiments"
	"discovery/internal/starbench"
	"discovery/internal/trace"
	"discovery/internal/vm"
)

var update = flag.Bool("update", false, "rewrite testdata/ddg_identities.json")

const identitiesPath = "testdata/ddg_identities.json"

// graphIdentity is the pinned summary of one graph.
type graphIdentity struct {
	Nodes       int    `json:"nodes"`
	Arcs        int    `json:"arcs"`
	Fingerprint string `json:"fingerprint"`
	Rendering   string `json:"rendering_sha256"`
}

// ddgIdentity pins one traced graph and its simplified form.
type ddgIdentity struct {
	Name string `json:"name"`
	graphIdentity
	Simplified graphIdentity `json:"simplified"`
}

// identityCase is one program and input to trace.
type identityCase struct {
	name    string
	b       *starbench.Benchmark
	version starbench.Version
	params  starbench.Params
}

func identityCases(t *testing.T) []identityCase {
	var cases []identityCase
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			cases = append(cases, identityCase{b.Name + "/" + string(v), b, v, b.Analysis})
		}
	}
	for _, tc := range stressCases() {
		b := starbench.ByName(tc.name)
		if b == nil {
			t.Fatalf("unknown benchmark %q", tc.name)
		}
		cases = append(cases, identityCase{"stress8/" + tc.name, b, starbench.Pthreads, tc.params})
	}
	for _, b := range starbench.All() {
		for _, f := range []int64{2, 4} {
			name := fmt.Sprintf("%s/%s/x%d", b.Name, starbench.Pthreads, f)
			cases = append(cases, identityCase{name, b, starbench.Pthreads, experiments.ScaleParams(b, f)})
		}
	}
	return cases
}

func identityOf(t *testing.T, c identityCase) ddgIdentity {
	built := c.b.Build(c.version, c.params)
	res, err := trace.Run(built.Prog, vm.WithMaxOps(1<<24))
	if err != nil {
		t.Fatalf("%s: trace.Run: %v", c.name, err)
	}
	return ddgIdentity{
		Name:          c.name,
		graphIdentity: summarize(res.Graph),
		Simplified:    summarize(core.Simplify(res.Graph)),
	}
}

func summarize(g *ddg.Graph) graphIdentity {
	fp := g.Fingerprint()
	sum := sha256.Sum256([]byte(fingerprint(g)))
	return graphIdentity{
		Nodes:       g.NumNodes(),
		Arcs:        g.NumArcs(),
		Fingerprint: fmt.Sprintf("%016x%016x", fp.Hi, fp.Lo),
		Rendering:   hex.EncodeToString(sum[:]),
	}
}

// TestGoldenDDGIdentities traces every pinned case and compares it with
// the committed identity.
func TestGoldenDDGIdentities(t *testing.T) {
	cases := identityCases(t)
	got := make([]ddgIdentity, len(cases))
	for i, c := range cases {
		got[i] = identityOf(t, c)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(identitiesPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(identitiesPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(identitiesPath)
	if err != nil {
		t.Fatalf("missing pins (run `go test ./internal/trace -update`): %v", err)
	}
	var want []ddgIdentity
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", identitiesPath, err)
	}
	pinned := make(map[string]ddgIdentity, len(want))
	for _, w := range want {
		pinned[w.Name] = w
	}
	if len(pinned) != len(got) {
		t.Errorf("%s pins %d graphs, the suite traces %d", identitiesPath, len(pinned), len(got))
	}
	for _, g := range got {
		w, ok := pinned[g.Name]
		if !ok {
			t.Errorf("%s: no pinned identity", g.Name)
			continue
		}
		if g != w {
			t.Errorf("%s: DDG identity changed:\n got %+v\nwant %+v", g.Name, g, w)
		}
	}
}
