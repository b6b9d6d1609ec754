package pg

import "fmt"

// Plan is the evaluation strategy for one compiled query, chosen per
// (graph, automaton) by the cost-based planner in internal/pg/plan from
// cardinality estimates. The zero Plan — forward, worker count decided by
// Options.Parallelism — is the historical default behavior, so callers that
// never plan lose nothing.
type Plan struct {
	// Backward evaluates target→source over the reversed automaton: one
	// sweep per target node collects its sources. Pays off when the query's
	// last labels are much rarer than its first (the reversed frontier
	// stays small). Results are re-sorted, so output is unchanged.
	Backward bool
	// Workers is the per-source fan-out degree; 0 defers to
	// Options.Parallelism, 1 forces the sequential path.
	Workers int
	// EstStates is the planner's frontier-mass estimate for the chosen
	// direction (product states expanded, summed over all sources). It sets
	// Workers and is printed in the plan line and as the estimate of
	// analyze's kernel node.
	EstStates float64
}

func (p Plan) String() string {
	dir := "forward"
	if p.Backward {
		dir = "backward"
	}
	return fmt.Sprintf("dir=%s workers=%d est=%.0f", dir, p.Workers, p.EstStates)
}
