package pg

import "fmt"

// Plan is the evaluation strategy for one compiled query, chosen per
// (graph, automaton) by the cost-based planner in internal/pg/plan from
// cardinality estimates. The zero Plan — forward, unsharded, worker count
// decided by Options.Parallelism — is the historical default behavior, so
// callers that never plan lose nothing.
type Plan struct {
	// Backward evaluates target→source over the reversed automaton: one
	// sweep per target node collects its sources. Pays off when the query's
	// last labels are much rarer than its first (the reversed frontier
	// stays small). Results are re-sorted, so output is unchanged.
	Backward bool
	// Workers is the per-source fan-out degree; 0 defers to
	// Options.Parallelism, 1 forces the sequential path.
	Workers int
	// Shards partitions each sweep's product state space by graph node into
	// this many shard loops with cross-shard exchange at level barriers
	// (0 and 1 both mean unsharded). Kernel.Sweep honours it; the batched
	// all-sources loop does not shard.
	Shards int
	// EstStates is the planner's frontier-mass estimate for the chosen
	// direction (product states expanded per sweep) — recorded for Explain
	// output and the plan-selection table in EXPERIMENTS.md.
	EstStates float64
}

func (p Plan) String() string {
	dir := "forward"
	if p.Backward {
		dir = "backward"
	}
	s := fmt.Sprintf("dir=%s workers=%d", dir, p.Workers)
	if p.Shards > 1 {
		s += fmt.Sprintf(" shards=%d", p.Shards)
	}
	return s + fmt.Sprintf(" est=%.0f", p.EstStates)
}
