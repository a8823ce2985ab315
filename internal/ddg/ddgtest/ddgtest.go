// Package ddgtest builds small hand-made DDGs for tests. A Builder takes
// nodes and arcs in whatever order a test finds natural and builds the
// graph through ddg.FrozenBuilder, the only graph constructor, so a test
// graph obeys every invariant a traced one does: arcs flow from lower to
// higher ids, duplicate and NoNode arcs are dropped, and successor lists
// come out in ascending id order. An arc that does not flow forward
// (a self, backward or cycle-closing arc) makes Build return the
// builder's InvariantViolation.
package ddgtest

import (
	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// Builder records nodes and their predecessors. The zero value is an
// empty builder ready to use.
type Builder struct {
	nodes []node
}

type node struct {
	op     mir.Op
	pos    mir.Pos
	thread int32
	scope  *ddg.Scope
	preds  []ddg.NodeID
}

// AddNode appends a node with the given predecessors and returns its id.
func (b *Builder) AddNode(op mir.Op, pos mir.Pos, thread int32, scope *ddg.Scope, preds ...ddg.NodeID) ddg.NodeID {
	b.nodes = append(b.nodes, node{op, pos, thread, scope, append([]ddg.NodeID(nil), preds...)})
	return ddg.NodeID(len(b.nodes) - 1)
}

// Arc adds the arc (u, v) to node v, which must already exist.
func (b *Builder) Arc(u, v ddg.NodeID) {
	b.nodes[v].preds = append(b.nodes[v].preds, u)
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodes) }

// Build builds the graph of everything added so far. The builder stays
// usable: a test can add more and build again, getting a new graph.
func (b *Builder) Build() (*ddg.Graph, error) {
	fb := ddg.NewFrozenBuilder(len(b.nodes), 0)
	for _, n := range b.nodes {
		fb.AddNode(n.op, n.pos, n.thread, n.scope, n.preds...)
	}
	return fb.Finish()
}

// Graph is Build for a graph the test expects to be well formed: it
// panics on an invariant violation.
func (b *Builder) Graph() *ddg.Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
