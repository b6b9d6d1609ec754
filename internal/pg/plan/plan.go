// Package plan is the cost-based planner of the unified product-graph
// runtime: given a compiled automaton and the graph's cardinality
// statistics (internal/cardest), it chooses how the kernel should run the
// query — evaluation direction (forward from sources vs. backward from
// targets over the reversed automaton), parallelism degree, and whether a
// configured shard count is worth its level barriers. Every choice changes only
// how the answer set is computed, never the answer set itself, so a bad
// estimate costs time, not correctness.
package plan

import (
	"graphquery/internal/automata"
	"graphquery/internal/cardest"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
)

// Tuning constants of the cost model. They only shift the break-even
// points between equivalent strategies.
const (
	// backwardMargin is how much cheaper the reversed sweep must look
	// before the planner abandons the forward default (the margin absorbs
	// estimation noise and the backward path's final re-sort).
	backwardMargin = 0.7
	// parallelThreshold is the minimum estimated total product states
	// (across all sources) before the fan-out is worth more than one
	// worker.
	parallelThreshold = 1 << 15
	// shardThreshold is the minimum estimate before an engine-level shards
	// knob actually shards the sweep — tiny sweeps would spend more on
	// level barriers than on expansion.
	shardThreshold = 1 << 12
)

// Planner chooses kernel plans for queries over one graph version. It is
// immutable after New and safe for concurrent use.
type Planner struct {
	stats cardest.Stats
}

// New returns the planner of g. It costs O(1) — the statistics are a view
// over counts the graph already keeps — so callers plan where they stand
// instead of caching a planner per revision.
func New(g *graph.Graph) *Planner {
	return &Planner{stats: cardest.Of(g)}
}

// ForNFA plans the all-pairs evaluation of a compiled RPQ automaton.
// parallelism is the caller's worker cap (0 = one per CPU); the planner
// may lower it to 1 when the estimated work cannot amortize the pool.
// shards is the engine's kernel-sharding knob: with shards > 1 and enough
// estimated work the plan records it. Only Kernel.Sweep shards, and the
// all-sources driver calls it for a source list of one; batches ignore it.
func (p *Planner) ForNFA(a *automata.NFA, parallelism, shards int) pg.Plan {
	n := p.stats.Nodes
	if n == 0 || a.NumStates == 0 {
		return pg.Plan{}
	}
	pl := pg.Plan{}
	if bwd, fwd := p.firstStepMass(a, true), p.firstStepMass(a, false); bwd < backwardMargin*fwd {
		pl.Backward = true
	}
	pl.EstStates = p.sweepCost(a, pl.Backward) * float64(n)
	pl.Workers = 1
	if pl.EstStates >= parallelThreshold {
		pl.Workers = pg.Workers(parallelism)
	}
	if shards > 1 && pl.EstStates >= shardThreshold {
		pl.Shards = shards
	}
	return pl
}

// firstStepMass estimates the expected frontier arrivals of a sweep's
// first kernel step — the per-node fan-out of the transitions leaving the
// start states (forward) or entering the accepting states (backward).
// Seed selectivity dominates the direction choice: a sweep whose first
// guard matches nothing at its source dies after one state, so when a
// query's final labels are far more selective than its initial ones, the
// reversed automaton turns almost every per-node sweep into a no-op.
// Deeper propagation cannot see this asymmetry — expectations averaged
// over all sources saturate the same way in either direction.
func (p *Planner) firstStepMass(a *automata.NFA, backward bool) float64 {
	n := float64(p.stats.Nodes)
	mass := 0.0
	for q := 0; q < a.NumStates; q++ {
		for _, t := range a.Trans[q] {
			if backward {
				if a.Accept[t.To] {
					mass += p.stats.GuardEdges(t.Guard) / n
				}
			} else if q == a.Start {
				mass += p.stats.GuardEdges(t.Guard) / n
			}
		}
	}
	return mass
}

// sweepCost estimates the product states one single-source kernel sweep
// expands: expected per-state frontier mass is propagated through the
// automaton (reversed, for a backward sweep, and seeded from the
// accepting states) with per-step fan-out GuardEdges/|N| under the
// independence assumptions of cardest, capped at |N| distinct nodes per
// state, for a horizon of about the graph's expected diameter.
func (p *Planner) sweepCost(a *automata.NFA, backward bool) float64 {
	n := float64(p.stats.Nodes)
	mass := make([]float64, a.NumStates)
	if backward {
		for q, acc := range a.Accept {
			if acc {
				mass[q] = 1
			}
		}
	} else {
		mass[a.Start] = 1
	}
	type edge struct {
		to  int
		fan float64
	}
	outs := make([][]edge, a.NumStates)
	for q := 0; q < a.NumStates; q++ {
		for _, t := range a.Trans[q] {
			fan := p.stats.GuardEdges(t.Guard) / n
			if backward {
				outs[t.To] = append(outs[t.To], edge{to: q, fan: fan})
			} else {
				outs[q] = append(outs[q], edge{to: t.To, fan: fan})
			}
		}
	}
	total := 0.0
	for _, m := range mass {
		total += m
	}
	for step := 0; step < cardest.DefaultHorizon(p.stats.Nodes); step++ {
		next := make([]float64, a.NumStates)
		moved := false
		for q, m := range mass {
			if m <= 0 {
				continue
			}
			for _, e := range outs[q] {
				if c := m * e.fan; c > 0 {
					next[e.to] += c
					moved = true
				}
			}
		}
		if !moved {
			break
		}
		for q := range next {
			if next[q] > n {
				next[q] = n // at most |N| distinct nodes per state
			}
			total += next[q]
		}
		mass = next
	}
	return total
}
