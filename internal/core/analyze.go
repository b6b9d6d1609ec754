// EXPLAIN ANALYZE: the annotated plan tree of one query. Request.Analyze
// makes QueryStream mint a meter carrying a pg.SweepStats sink, so the kernel
// records per-sweep and per-level telemetry at its existing exit and
// barrier sites, and the Response gains an AnnotatedPlan: each node of the
// plan stamped with the planner's estimate next to the measured actual,
// plus a q-error per node. The tree holds only deterministic fields —
// counts, estimates, identifiers, never wall-clock — so identical runs of
// an identical query against an identical graph and plan render
// byte-identical JSON, which is what makes annotated plans diffable and
// the analyze determinism tests possible.
package core

import (
	"strconv"

	"graphquery/internal/cardest"
	"graphquery/internal/obs"
	"graphquery/internal/pg"
)

// PlanNode is one node of the annotated plan tree: a stage or operator
// with the planner's estimate next to the measured actual. Estimate and
// QError are zero (and omitted from JSON) for nodes without a cost-model
// prediction — only the root of estimable kinds and the kernel stage of
// planned sweeps carry them.
type PlanNode struct {
	// Name is the node's operator or stage: the result kind at the root,
	// the trace stage names (parse, compile, plan, kernel, enumerate,
	// stream) below it.
	Name string `json:"name"`
	// Detail carries the node's plan line (the planner's String) when one
	// exists.
	Detail string `json:"detail,omitempty"`
	// Estimate is the planner's prediction for this node's Actual: answer
	// rows at the root (cardest.Stats.Estimate), product states at the
	// kernel stage (the frontier-mass model's Plan.EstStates).
	Estimate float64 `json:"estimate,omitempty"`
	// Actual is the measured quantity: result rows at the root, product
	// states expanded per stage below it.
	Actual int64 `json:"actual"`
	// Rows is the stage's result-row delta (meter reading), where the
	// stage produced any.
	Rows int64 `json:"rows,omitempty"`
	// QError is max((e+1)/(a+1), (a+1)/(e+1)) of Estimate vs Actual,
	// present only where Estimate is.
	QError float64 `json:"q_error,omitempty"`
	// Children are the stages below this node, in execution order.
	Children []PlanNode `json:"children,omitempty"`
}

// AnnotatedPlan is the analyze-mode payload of a Response: the annotated
// plan tree plus the kernel's sweep telemetry.
type AnnotatedPlan struct {
	// Plan is the annotated tree; its root is the query's result kind.
	Plan PlanNode `json:"plan"`
	// Sweep is the kernel's recorded telemetry: per-level frontier sizes
	// and direction choices, edges examined. Nil when no kernel sweep ran.
	Sweep *pg.SweepStatsSnapshot `json:"sweep,omitempty"`
}

// Trace attributes the analyze path communicates through: the evaluator
// that holds the compiled rpqPlan records its estimates there (strings,
// deterministically formatted), and annotate reads them back when building
// the tree. Attributes keep the evaluator signatures untouched.
const (
	attrEstRows   = "est_rows"   // cardest answer-count estimate
	attrEstStates = "est_states" // frontier-mass model states estimate
)

// formatEst renders an estimate deterministically for a trace attribute
// (shortest round-trip form, the same rendering encoding/json uses).
func formatEst(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// noteKernelActuals records the analyze-path estimates of one planned
// kernel sweep: called by rpqPairs right after a kernel stage that ran
// to completion (a sweep the sink stopped early swept only part of the
// product, so its counts would be q-errors of nothing and it carries no
// estimate). ss nil (analyze off) is a no-op, so non-analyze queries pay
// one nil check.
func noteKernelActuals(gs *graphState, tr *obs.Trace, pl rpqPlan, ss *pg.SweepStats) {
	if ss == nil {
		return
	}
	// EstStates 0 means the planner never costed the sweep (graphs below
	// planMinNodes take the default plan) — no estimate, not an estimate of
	// zero, so no attribute and no q-error for the kernel node.
	if pl.plan.EstStates > 0 {
		tr.Set(attrEstStates, formatEst(pl.plan.EstStates))
	}
	tr.Set(attrEstRows, formatEst(cardest.Of(gs.g).Estimate(pl.expr, 0)))
}

// annotate builds the AnnotatedPlan of one completed analyze-mode query.
// The tree is derived from deterministic sources only: the trace's span
// names and meter deltas (never their timings), the plan attributes, and
// the sweep telemetry. Accumulated spans are delivery time accounting —
// which of them exist depends on the sink and on whether its client ever
// blocked — so they are not plan nodes.
func annotate(resp *Response, tr *obs.Trace, ss *pg.SweepStats) *AnnotatedPlan {
	actual := int64(resp.Count())
	root := PlanNode{Name: resp.Kind, Detail: tr.Attr("plan"), Actual: actual}
	if s := tr.Attr(attrEstRows); s != "" {
		if est, err := strconv.ParseFloat(s, 64); err == nil {
			root.Estimate = est
			root.QError = cardest.QError(int(actual), est)
		}
	}
	estStates := 0.0
	hasEstStates := false
	if s := tr.Attr(attrEstStates); s != "" {
		if est, err := strconv.ParseFloat(s, 64); err == nil {
			estStates, hasEstStates = est, true
		}
	}
	for _, sp := range resp.Spans {
		if sp.Accumulated {
			continue
		}
		n := PlanNode{Name: sp.Name, Actual: sp.States, Rows: sp.Rows}
		if sp.Name == "kernel" && hasEstStates {
			n.Estimate = estStates
			n.QError = cardest.QError(int(sp.States), estStates)
		}
		root.Children = append(root.Children, n)
	}
	return &AnnotatedPlan{Plan: root, Sweep: ss.Snapshot()}
}
