package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"discovery/internal/core"
	"discovery/internal/trace"
	"discovery/internal/vm"
)

// regeneratePins recomputes every pinned answer from resident runs and
// writes the pins file to path.
func regeneratePins(path string) error {
	ctx := context.Background()
	rungs, pairs := ladderPlan(1)
	specs := append(append(append([]jobSpec(nil), rungs...), pairs...), pagedJobs...)
	p := pins{Analyses: map[string]pin{}}
	for _, s := range specs {
		if _, done := p.Analyses[s.key()]; done {
			continue
		}
		j, err := newJob(s)
		if err != nil {
			return err
		}
		out, err := analyze(ctx, j, findOptions(), nil)
		if err != nil {
			return err
		}
		h, err := answerHash(out.Report)
		if err != nil {
			return err
		}
		p.Analyses[s.key()] = pin{Patterns: out.Patterns, Answer: h}
	}

	var err error
	if _, p.Table3, err = table3Pass(pairs, newOracle(&p)); err != nil {
		return err
	}

	big, err := newJob(bigTraceJob)
	if err != nil {
		return err
	}
	tr, err := trace.Run(big.prog, vm.WithMaxOps(1<<40))
	if err != nil {
		return err
	}
	gs := core.Simplify(tr.Graph)
	fp := gs.Fingerprint()
	p.BigTrace = bigTracePin{
		Nodes: tr.Graph.NumNodes(), Arcs: tr.Graph.NumArcs(),
		Simplified: gs.NumNodes(), SimplifiedArcs: gs.NumArcs(),
		Fingerprint: fmt.Sprintf("%016x%016x", fp.Hi, fp.Lo),
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
