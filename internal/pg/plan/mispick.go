package plan

import (
	"graphquery/internal/cardest"
	"graphquery/internal/pg"
)

// mispickQErrorCut is the estimate-vs-actual q-error above which a plan's
// cost-model inputs are considered bad enough to have corrupted the knob
// choices derived from them. 32 is two binary orders past the coarsest
// threshold gap in the model (the shard floor and the fan-out threshold
// differ by 2^3), so estimates inside the cut could not have flipped a knob.
const mispickQErrorCut = 32

// Mispicks audits one executed plan against its measured actuals and
// returns the knobs whose choice the evidence contradicts — the vocabulary
// of the gq_plan_mispick_total metric family: "direction" (the cost
// model's state estimate was off by ≥ mispickQErrorCut×, so the
// forward/backward choice rested on bad data) and "shards" (a sharded
// sweep too light to amortize its level barriers). states is the query's
// measured product states expanded.
//
// These are coarse audit heuristics, not proofs: they compare the actuals
// against the same thresholds the planner decided with, which is exactly
// what an estimate-vs-actual feedback loop can see. An empty result means
// the evidence is consistent with every choice, not that each was optimal.
func Mispicks(pl pg.Plan, states int64) []string {
	var out []string
	if pl.EstStates > 0 && cardest.QError(int(states), pl.EstStates) >= mispickQErrorCut {
		out = append(out, "direction")
	}
	if pl.Shards > 1 && states < shardThreshold {
		out = append(out, "shards")
	}
	return out
}
