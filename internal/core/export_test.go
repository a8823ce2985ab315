package core

import (
	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/patterns"
)

// SetFindTestHook installs (or, with nil, removes) the hook run at every
// guarded finder phase. External test packages use it to inject panics at
// named phases and observe the degraded-but-partial Result contract.
func SetFindTestHook(h func(phase string)) { findTestHook = h }

// SetMatchTaskHook installs (or, with nil, removes) the hook run at the
// entry of every (sub-DDG × kind) solve task, on the worker goroutine.
// Tests use it to observe that kinds of one sub-DDG really run as
// independent tasks on separate workers.
func SetMatchTaskHook(h func(kind patterns.Kind)) { matchTaskHook = h }

// GenRandomProgram exposes the random-program generator to external test
// packages. The prescreen differential suite lives outside the package
// because it compares report bytes, and report imports core.
func GenRandomProgram(seed uint64) *mir.Program { return genProgram(seed) }

// SetDerivedCensusHook installs (or, with nil, removes) the hook that sees
// every census the finder derives from a subtract parent's, with the node
// set and grouping loop it describes, on the worker goroutine.
func SetDerivedCensusHook(h func(g *ddg.Graph, nodes ddg.Set, loop mir.LoopID, p *patterns.Prescreen)) {
	derivedCensusHook = h
}
