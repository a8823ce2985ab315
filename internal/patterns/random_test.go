package patterns

// Adversarial property suite: on random DAGs (not just well-formed
// traces), any pattern a matcher reports must satisfy the unrelaxed §4
// definitions — the paper's observation that its relaxations "do not lead
// to violations of the original pattern definitions", tested well beyond
// the benchmark inputs. Seeds are fixed for reproducibility.

import (
	"fmt"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/ddg/ddgtest"
	"discovery/internal/mir"
)

type prng struct{ s uint64 }

func (r *prng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

// randomDAG builds a forward-arc random graph whose nodes carry random
// operations and random iteration scopes of loop 1.
func randomDAG(seed uint64) (*ddg.Graph, ddg.Set) {
	r := &prng{s: seed | 1}
	ops := []mir.Op{mir.OpFAdd, mir.OpFMul, mir.OpFSub, mir.OpI2F, mir.OpGt, mir.OpFDiv}
	n := 6 + r.intn(14)
	var b ddgtest.Builder
	for i := 0; i < n; i++ {
		var scope *ddg.Scope
		if r.intn(4) != 0 { // most nodes sit in some iteration of loop 1
			scope = &ddg.Scope{Loop: 1, Invocation: 1, Iter: int64(r.intn(5))}
		}
		b.AddNode(ops[r.intn(len(ops))], mir.Pos{File: "r.c", Line: 1 + r.intn(6)}, 0, scope)
	}
	// Random forward arcs keep the graph a DAG with the id-order invariant.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.intn(4) == 0 {
				b.Arc(ddg.NodeID(i), ddg.NodeID(j))
			}
		}
	}
	// Ambient: a random subset of at least half the nodes.
	var amb []ddg.NodeID
	for i := 0; i < n; i++ {
		if r.intn(3) != 0 {
			amb = append(amb, ddg.NodeID(i))
		}
	}
	return b.Graph(), ddg.NewSet(amb...)
}

// perturbedStructured starts from a well-formed pattern graph and injects
// a few random forward arcs: matchers must either still accept (and then
// verify) or reject, never accept something the definitions refute.
func perturbedStructured(seed uint64) (*ddg.Graph, ddg.Set) {
	r := &prng{s: seed | 1}
	b := newGB()
	var amb ddg.Set
	switch r.intn(3) {
	case 0:
		amb = addMapDDG(b, 2+r.intn(5))
	case 1:
		amb = addChainDDG(b, 2+r.intn(6))
	default:
		amb = addTiledDDG(b, 2+r.intn(3), 1+r.intn(3))
	}
	extra := r.intn(3)
	for k := 0; k < extra; k++ {
		i := r.intn(b.NumNodes() - 1)
		j := i + 1 + r.intn(b.NumNodes()-i-1)
		b.Arc(ddg.NodeID(i), ddg.NodeID(j))
	}
	return b.Graph(), amb
}

func TestMatchersSoundOnRandomDAGs(t *testing.T) {
	matched := 0
	for seed := uint64(1); seed <= 400; seed++ {
		var g *ddg.Graph
		var amb ddg.Set
		if seed%2 == 0 {
			g, amb = randomDAG(seed)
		} else {
			g, amb = perturbedStructured(seed)
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: generator produced a malformed graph: %v", seed, err)
		}
		for _, v := range []*View{NodeView(g, amb), LoopView(g, amb, 1)} {
			check := func(p *Pattern) {
				if p == nil {
					return
				}
				matched++
				if err := Verify(g, p); err != nil {
					t.Errorf("seed %d: matched %v violates its definition: %v",
						seed, p.Kind, err)
				}
			}
			check(MatchMap(v))
			check(MatchLinearReduction(v, nil))
			check(MatchTiledReduction(v, nil))
			check(MatchTreeReduction(v))
		}
	}
	// The suite is only meaningful if some random graphs actually match.
	if matched == 0 {
		t.Error("no random graph matched anything; generator too hostile")
	}
}

func TestMatchersDeterministicOnRandomDAGs(t *testing.T) {
	for seed := uint64(500); seed <= 540; seed++ {
		g, amb := randomDAG(seed)
		sig := func() string {
			s := ""
			for _, v := range []*View{NodeView(g, amb), LoopView(g, amb, 1)} {
				for _, p := range []*Pattern{
					MatchMap(v), MatchLinearReduction(v, nil),
					MatchTiledReduction(v, nil), MatchTreeReduction(v),
				} {
					if p == nil {
						s += "-;"
					} else {
						s += fmt.Sprintf("%v:%s;", p.Kind, p.Nodes().Key())
					}
				}
			}
			return s
		}
		if sig() != sig() {
			t.Errorf("seed %d: matcher output not deterministic", seed)
		}
	}
}
