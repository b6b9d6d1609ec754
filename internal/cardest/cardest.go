// Package cardest implements a cardinality estimator for RPQs — one of the
// open directions Section 7.1 of the paper calls out ("how to develop
// cardinality estimation approaches for (C)RPQs"). It follows the classical
// system-R-style independence assumptions lifted to the automaton view:
//
//   - per-label edge counts come from the graph, which keeps them current
//     under mutation (Stats is a view, not a collection pass);
//   - an RPQ is compiled to its Glushkov automaton, and expected numbers of
//     matching walks are propagated through automaton states as expected
//     per-node frontier sizes, with labels treated independently;
//   - Kleene cycles are unrolled to a fixed horizon with geometric damping,
//     and results are capped at |N|² (the answer is a set of pairs).
//
// The estimator ships with an evaluation harness (Compare) reporting the
// q-error against exact counts, which is what experiment E27 prints.
package cardest

import (
	"math"

	"graphquery/internal/automata"
	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

// Stats is the estimator's view of one graph version's statistics: live
// node and edge counts and, by lookup, the live edge count of a label. The
// graph keeps all three current as mutations are applied
// (graph.LabelEdgeCount), so taking the view costs O(1) and scans nothing —
// a served graph is re-planned after every commit.
type Stats struct {
	Nodes int
	// TotalEdges is Σ EdgeCount over the graph's labels.
	TotalEdges int

	g *graph.Graph
}

// Of returns the statistics view of g.
func Of(g *graph.Graph) Stats {
	return Stats{Nodes: g.NumLiveNodes(), TotalEdges: g.NumLiveEdges(), g: g}
}

// EdgeCount returns the number of edges carrying the label.
func (s Stats) EdgeCount(label string) int {
	id, ok := s.g.LabelID(label)
	if !ok {
		return 0
	}
	return s.g.LabelEdgeCount(id)
}

// GuardEdges estimates the number of edges matching a symbolic guard — the
// one per-step quantity the estimator and the kernel planner's cost model
// (internal/pg/plan) are both built on.
func (s Stats) GuardEdges(gd automata.Guard) float64 {
	n := 0
	for _, l := range gd.Labels {
		n += s.EdgeCount(l)
	}
	if gd.Negated {
		n = max(s.TotalEdges-n, 0)
	}
	return float64(n)
}

// Estimate predicts |⟦R⟧_G| — the number of answer pairs — from the
// statistics alone. horizon bounds the Kleene unrolling (values around the
// graph diameter work well; 0 picks a default).
func (s Stats) Estimate(e rpq.Expr, horizon int) float64 {
	if s.Nodes == 0 {
		return 0
	}
	if horizon <= 0 {
		horizon = DefaultHorizon(s.Nodes)
	}
	a := rpq.Compile(rpq.Simplify(e))

	n := float64(s.Nodes)
	// frontier[q] = expected number of (start, current) pairs in state q,
	// starting from every node. Initially every node sits in the start
	// state: n pairs of the form (u, u).
	frontier := make([]float64, a.NumStates)
	frontier[a.Start] = n

	// answers accumulates expected distinct pairs seen in accepting states;
	// we apply a union cap at the end rather than summing blindly.
	answers := 0.0
	if a.Accept[a.Start] {
		answers = n // the ε-pairs (u, u)
	}

	for step := 0; step < horizon; step++ {
		next := make([]float64, a.NumStates)
		moved := false
		for q, mass := range frontier {
			if mass <= 0 {
				continue
			}
			for _, tr := range a.Trans[q] {
				// Expected fan-out of one step over this guard: matching
				// edges per node.
				fanout := s.GuardEdges(tr.Guard) / n
				contribution := mass * fanout
				if contribution > 0 {
					next[tr.To] += contribution
					moved = true
				}
			}
		}
		if !moved {
			break
		}
		// Distinct-pair saturation: a state cannot hold more than n² pairs.
		cap2 := n * n
		for q := range next {
			if next[q] > cap2 {
				next[q] = cap2
			}
		}
		for q, mass := range next {
			if a.Accept[q] {
				answers += mass
			}
		}
		frontier = next
	}
	if answers > float64(s.Nodes*s.Nodes) {
		answers = float64(s.Nodes * s.Nodes)
	}
	return answers
}

// DefaultHorizon is the depth to which Kleene cycles are unrolled when the
// caller names none: about twice the log of the node count — the expected
// diameter of a graph that size — floored at 4.
func DefaultHorizon(nodes int) int {
	h := int(math.Ceil(2 * math.Log2(float64(nodes)+1)))
	if h < 4 {
		h = 4
	}
	return h
}

// Comparison is one estimator-evaluation row.
type Comparison struct {
	Query    string
	Actual   int
	Estimate float64
	QError   float64
}

// QError returns max(est/act, act/est), the standard estimation-quality
// measure; zero cases are smoothed with +1.
func QError(actual int, estimate float64) float64 {
	a := float64(actual) + 1
	e := estimate + 1
	if e > a {
		return e / a
	}
	return a / e
}

// Compare runs the estimator against exact evaluation for each query.
func Compare(g *graph.Graph, queries []string) ([]Comparison, error) {
	stats := Of(g)
	out := make([]Comparison, 0, len(queries))
	for _, q := range queries {
		e, err := rpq.Parse(q)
		if err != nil {
			return nil, err
		}
		actual := len(eval.Pairs(g, e))
		est := stats.Estimate(e, 0)
		out = append(out, Comparison{
			Query:    q,
			Actual:   actual,
			Estimate: est,
			QError:   QError(actual, est),
		})
	}
	return out, nil
}
