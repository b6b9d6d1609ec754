package pg

import "sync"

// SweepStats is the analyze-mode telemetry sink of one query: when a
// request asks for EXPLAIN ANALYZE, the serving layer mints a meter
// carrying one of these (NewMeter's ss), and the kernel records what its
// sweeps actually did — states, edges, peak frontier, and a per-level
// breakdown of the direction switch. Recording happens only at sweep exits
// and level barriers, where the loop already aggregates its counters, so the
// hot loops gain no new branches; an analyze-off query carries a nil sink
// and pays only the nil checks at those sites.
//
// All aggregates are order-independent (sums and counts keyed by level
// index, maxima), so concurrent sweeps of a parallel fan-out produce the
// same Snapshot regardless of goroutine scheduling — the property the
// analyze determinism tests pin.
type SweepStats struct {
	mu           sync.Mutex
	sweeps       int64
	idleSources  int64
	states       int64
	edges        int64
	peakFrontier int64
	levels       []levelAgg
	condensed    *CondensedStats // set by the first condensation a call runs on
}

// levelAgg accumulates one BFS depth across every sweep of the query.
type levelAgg struct {
	sweeps     int64
	frontier   int64
	discovered int64
	edges      int64
	bottomUp   int64
	topDown    int64
	unvisited  int64
}

// RecordSweep folds one loop exit's accounting into the stats: sweeps is
// the number of sources the loop served — one for Kernel.Sweep; for the
// batched loop the live sources of the batch's window, idle of which it
// charged without running, where states counts (source, state) discoveries
// and peak the shared frontier's length in product states.
func (ss *SweepStats) RecordSweep(sweeps, idle, states, edges, peak int64) {
	if ss == nil {
		return
	}
	ss.mu.Lock()
	ss.sweeps += sweeps
	ss.idleSources += idle
	ss.states += states
	ss.edges += edges
	if peak > ss.peakFrontier {
		ss.peakFrontier = peak
	}
	ss.mu.Unlock()
}

// RecordCondensation folds the condensation one all-sources call runs on
// into the stats: the states it numbers, its components, DAG edges and
// largest component, and the adjacency entries the call examined building
// it, which join the query's edges like any sweep's — none when the call
// runs on a condensation an earlier call kept on the kernel.
func (ss *SweepStats) RecordCondensation(states, components, dagEdges, largest, edges int64) {
	if ss == nil {
		return
	}
	ss.mu.Lock()
	if ss.condensed == nil {
		ss.condensed = &CondensedStats{}
	}
	ss.edges += edges
	ss.condensed.States += states
	ss.condensed.Components += components
	ss.condensed.DAGEdges += dagEdges
	ss.condensed.LargestComponent = max(ss.condensed.LargestComponent, largest)
	ss.mu.Unlock()
}

// RecordCondensedSweep is RecordSweep for a batch that ran on a
// condensation RecordCondensation has recorded for its call: it has no
// levels and no frontier, and its edges are DAG edges examined.
func (ss *SweepStats) RecordCondensedSweep(sources, idle, states, edges int64) {
	if ss == nil {
		return
	}
	ss.mu.Lock()
	ss.sweeps += sources
	ss.idleSources += idle
	ss.states += states
	ss.edges += edges
	ss.condensed.Sources += sources
	ss.mu.Unlock()
}

// RecordLevel folds one level barrier into the per-depth
// aggregates: the frontier that entered the level, the direction it ran
// (chosen by the Beamer-style switch before the level), the adjacency
// entries it examined, the states it discovered, and the unvisited mass
// remaining afterwards — discovered and unvisited being exactly the alpha
// inputs of the next level's direction decision. sweeps is the number of
// sources whose frontier the level expanded: one for Kernel.Sweep; for the
// batched loop the sources with a bit in the level's frontier, with
// frontier, discovered and unvisited counted in (source, state) pairs.
func (ss *SweepStats) RecordLevel(level int, sweeps, frontier, discovered, edges, unvisited int64, bottomUp bool) {
	if ss == nil {
		return
	}
	ss.mu.Lock()
	for len(ss.levels) <= level {
		ss.levels = append(ss.levels, levelAgg{})
	}
	la := &ss.levels[level]
	la.sweeps += sweeps
	la.frontier += frontier
	la.discovered += discovered
	la.edges += edges
	la.unvisited += unvisited
	if bottomUp {
		la.bottomUp += sweeps
	} else {
		la.topDown += sweeps
	}
	ss.mu.Unlock()
}

// SweepLevel is one BFS depth of SweepStatsSnapshot: sums over every sweep
// of the query that reached this depth.
type SweepLevel struct {
	// Level is the BFS depth (0 expands the seed frontier).
	Level int `json:"level"`
	// Sweeps counts the sweeps that expanded a frontier at this depth.
	Sweeps int64 `json:"sweeps"`
	// Frontier is the total states entering this depth across sweeps.
	Frontier int64 `json:"frontier"`
	// Discovered is the total states first reached at this depth; together
	// with Unvisited it is the input of the next depth's direction switch
	// (bottom-up when alpha·discovered > unvisited).
	Discovered int64 `json:"discovered"`
	// Edges is the adjacency entries examined at this depth.
	Edges int64 `json:"edges"`
	// BottomUp / TopDown count the sweeps that ran this depth in each
	// direction.
	BottomUp int64 `json:"bottom_up"`
	TopDown  int64 `json:"top_down"`
	// Unvisited is the total product states still undiscovered after this
	// depth, summed across sweeps (for a batch: across all its sources).
	Unvisited int64 `json:"unvisited"`
}

// CondensedStats is the part of a query's all-sources work that ran on the
// condensation of the product instead of the level loop (DESIGN §20). A
// query with several all-pairs stages sums their condensations;
// LargestComponent is the maximum.
type CondensedStats struct {
	// Sources counts the sources swept on a condensation; the rest of
	// SweepStatsSnapshot.Sweeps ran the level loop and make up Levels.
	Sources int64 `json:"sources"`
	// States is the product states reachable from some source, Components
	// the strongly connected components among them, DAGEdges the distinct
	// edges between components.
	States           int64 `json:"states"`
	Components       int64 `json:"components"`
	DAGEdges         int64 `json:"dag_edges"`
	LargestComponent int64 `json:"largest_component"`
}

// SweepStatsSnapshot is the JSON face of SweepStats: what the annotated
// plan tree carries. It holds only deterministic fields — counts, sums,
// and maxima, never wall-clock — so identical runs render identical bytes.
type SweepStatsSnapshot struct {
	// Sweeps counts the sources the query swept from, whether one per
	// Kernel.Sweep or up to 64 per batch of the all-sources loop.
	// IdleSources is how many of them the all-sources driver did not run:
	// no transition out of a start state had an edge at them, so it charged
	// them the sweep they would have been — their start states, in States
	// and in level 0 — and left them out of its batches.
	Sweeps      int64 `json:"sweeps"`
	IdleSources int64 `json:"idle_sources,omitempty"`
	// States / Edges are total product states expanded — (source, state)
	// discoveries, the same number either loop — and adjacency entries
	// examined, which a batch examines once for all its sources;
	// PeakFrontier is the largest single-level frontier any sweep reached
	// (for a batch, the product states in its shared frontier).
	States       int64 `json:"states"`
	Edges        int64 `json:"edges"`
	PeakFrontier int64 `json:"peak_frontier"`
	// Alpha is the direction-switch threshold the sweeps ran with, echoed
	// so level rows can be audited: a level runs bottom-up when
	// alpha·discovered > unvisited held at the previous barrier.
	Alpha int64 `json:"alpha,omitempty"`
	// Levels is the per-depth breakdown of the sweeps that ran a level
	// loop: each row's Sweeps counts the sources it aggregates.
	Levels []SweepLevel `json:"levels,omitempty"`
	// Condensed is set when an all-sources call of the query ran on its
	// product's condensation: those sources have no levels, their Edges are
	// DAG edges per batch — plus the build's adjacency entries on the call
	// that built it; a later call runs on the one the kernel kept, batch 0
	// included — and they do not enter PeakFrontier.
	Condensed *CondensedStats `json:"condensed,omitempty"`
}

// Snapshot renders the accumulated telemetry. A nil receiver yields nil.
func (ss *SweepStats) Snapshot() *SweepStatsSnapshot {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	snap := &SweepStatsSnapshot{
		Sweeps:       ss.sweeps,
		IdleSources:  ss.idleSources,
		States:       ss.states,
		Edges:        ss.edges,
		PeakFrontier: ss.peakFrontier,
	}
	if len(ss.levels) > 0 {
		snap.Alpha = frontierAlpha
	}
	for i, la := range ss.levels {
		snap.Levels = append(snap.Levels, SweepLevel{
			Level:      i,
			Sweeps:     la.sweeps,
			Frontier:   la.frontier,
			Discovered: la.discovered,
			Edges:      la.edges,
			BottomUp:   la.bottomUp,
			TopDown:    la.topDown,
			Unvisited:  la.unvisited,
		})
	}
	if ss.condensed != nil {
		condensed := *ss.condensed
		snap.Condensed = &condensed
	}
	return snap
}
