// Package wcoj is the engine's attribute-at-a-time join over relations of
// node indexes — the evaluation technique Section 7.1 of the paper singles
// out ("over the last decade we have seen impressive progress on worst-case
// optimal evaluation of conjunctive queries, with the celebrated AGM bound
// […] for CRPQs we have seen little progress so far"), and the join behind
// every served CRPQ inside the kernel fragment (crpq.Plan).
//
// A relation is what the kernel's all-sources driver hands out: (source,
// target) pairs sorted by source then target, kept as one flat slice of
// targets with a run offset per node. Variables are bound one at a time
// (generic join / leapfrog): the candidates for a variable are the
// intersection of the sorted runs of every atom whose other end is already
// bound, so no intermediate relation is ever materialized. On cyclic joins
// such as the triangle R(x,y), S(y,z), T(z,x) that is O(N^{3/2}) where a
// pairwise plan can hit Θ(N²).
package wcoj

import (
	"slices"

	"graphquery/internal/pg"
)

// index is one direction of a binary relation over the nodes [0, n): the
// run of key u is vals[off[u]:off[u+1]], ascending.
type index struct {
	off  []int32 // n+1 offsets
	vals []int32
}

func (ix *index) run(u int32) []int32 { return ix.vals[ix.off[u]:ix.off[u+1]] }

// keys lists the nodes with a non-empty run, ascending.
func (ix *index) keys() []int32 {
	var out []int32
	for u := 0; u+1 < len(ix.off); u++ {
		if ix.off[u] != ix.off[u+1] {
			out = append(out, int32(u))
		}
	}
	return out
}

// Rel is a binary relation over the node indexes [0, n), built from the
// batches of one all-sources sweep: Append per batch, then Seal. The
// source-major index is the sweep's own output order; the target-major one
// is built, by counting sort, the first time a join enters the relation
// from its target side. A Rel belongs to one evaluation — whose atoms over
// the same expression all join on the one Rel, from either end — and is not
// safe for concurrent use.
type Rel struct {
	fwd, rev index // rev.off is nil until byTarget builds it
	parts    []pg.Runs
	n        int
}

// NewRel returns an empty relation over the nodes [0, n). Its offsets are
// O(n): a relation is for an atom whose sweep visits every node as a source
// anyway, and an atom anchored at a constant is a Set.
func NewRel(n int) *Rel {
	return &Rel{fwd: index{off: make([]int32, n+1)}}
}

// Append adds one batch of runs, which the relation keeps until Seal. Across
// all calls the sources must be distinct and ascending — the order
// pg.Kernel.SweepAll delivers them in.
func (r *Rel) Append(part pg.Runs) {
	r.parts = append(r.parts, part)
	r.n += part.Len()
}

// Len returns the number of pairs.
func (r *Rel) Len() int { return r.n }

// Seal ends the appends and must precede the first join: it moves the
// batches into the index, their targets copied, a batch at a time, into one
// slice of exactly the relation's size, and a run's length written at its
// source, then summed into offsets.
func (r *Rel) Seal() {
	r.fwd.vals = make([]int32, 0, r.n)
	for _, part := range r.parts {
		r.fwd.vals = append(r.fwd.vals, part.Tgt...)
		for i, u := range part.Src {
			r.fwd.off[u+1] = int32(len(part.Targets(i)))
		}
	}
	r.parts = nil
	for u := 1; u < len(r.fwd.off); u++ {
		r.fwd.off[u] += r.fwd.off[u-1]
	}
}

// byTarget returns the target-major index, building it on first use: one
// counting sort over the pairs, each target's sources ascending because
// the pairs are walked in source order.
func (r *Rel) byTarget() *index {
	if r.rev.off != nil {
		return &r.rev
	}
	n := len(r.fwd.off) - 1
	off := make([]int32, n+1)
	for _, v := range r.fwd.vals {
		off[v+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	next := slices.Clone(off[:n])
	vals := make([]int32, len(r.fwd.vals))
	for u := 0; u < n; u++ {
		for _, v := range r.fwd.run(int32(u)) {
			vals[next[v]] = int32(u)
			next[v]++
		}
	}
	r.rev = index{off: off, vals: vals}
	return &r.rev
}

// Atom is one conjunct Rel(X, Y) over two distinct variables, numbered from
// zero.
type Atom struct {
	Rel  *Rel
	X, Y int
}

// Set is a unary conjunct X ∈ Vals, Vals ascending and distinct: what an
// atom with a constant at one end, or the same variable at both, comes to
// once its sweep has been filtered.
type Set struct {
	Vals []int32
	X    int
}

// Query is a conjunction of atoms and sets over the variables [0, NumVars);
// every variable occurs in at least one of them.
type Query struct {
	NumVars int
	Atoms   []Atom
	Sets    []Set
}

// constraint is one sorted list a variable's candidates are intersected
// with: a fixed list, or the run of ix selected by the binding of from.
type constraint struct {
	fixed []int32
	ix    *index
	from  int
}

// step binds one variable: its candidates are the values in every
// constraint's list. runs is the step's working copy of those lists, each
// narrowed as the candidates advance.
type step struct {
	v    int
	cons []constraint
	runs [][]int32
}

// plan fixes the variable order and each step's constraints from the
// measured relation sizes: every step extends through the smallest relation
// that touches the bound part — a set's other end is a constant, so sets
// touch it from the start — and, when none does (the first variable of a
// connected component), starts in the smallest remaining relation at its
// source end, where the index already exists. Ties go to written order, so
// the order is a function of the query and the relations alone.
func (q *Query) plan() []step {
	bound := make([]bool, q.NumVars)
	steps := make([]step, 0, q.NumVars)
	for len(steps) < q.NumVars {
		v, size := -1, 0
		smaller := func(n int) bool { return v < 0 || n < size }
		for _, s := range q.Sets {
			if !bound[s.X] && smaller(len(s.Vals)) {
				v, size = s.X, len(s.Vals)
			}
		}
		for _, a := range q.Atoms {
			if bound[a.X] != bound[a.Y] && smaller(a.Rel.Len()) {
				v, size = a.X, a.Rel.Len()
				if bound[a.X] {
					v = a.Y
				}
			}
		}
		st := step{v: v}
		if v < 0 {
			var start *Rel
			for _, a := range q.Atoms {
				if !bound[a.X] && !bound[a.Y] && smaller(a.Rel.Len()) {
					v, size, start = a.X, a.Rel.Len(), a.Rel
				}
			}
			st = step{v: v, cons: []constraint{{fixed: start.fwd.keys()}}}
		}
		for _, s := range q.Sets {
			if s.X == v {
				st.cons = append(st.cons, constraint{fixed: s.Vals})
			}
		}
		for _, a := range q.Atoms {
			switch {
			case a.Y == v && bound[a.X]:
				st.cons = append(st.cons, constraint{ix: &a.Rel.fwd, from: a.X})
			case a.X == v && bound[a.Y]:
				st.cons = append(st.cons, constraint{ix: a.Rel.byTarget(), from: a.Y})
			}
		}
		st.runs = make([][]int32, len(st.cons))
		steps = append(steps, st)
		bound[v] = true
	}
	return steps
}

// Enumerate calls emit with every assignment of the variables that
// satisfies all atoms and sets, each exactly once; the slice it passes is
// indexed by variable and reused between calls. The join runs on the
// calling goroutine, polls m at least once per pg.CheckInterval candidate
// values, and stops at the first error from m or emit, which it returns.
func (q *Query) Enumerate(m *pg.Meter, emit func(binding []int32) error) error {
	j := joiner{steps: q.plan(), binding: make([]int32, q.NumVars), m: m, emit: emit}
	return j.bind(0)
}

type joiner struct {
	steps   []step
	binding []int32
	m       *pg.Meter
	emit    func([]int32) error
	tried   int // candidate values since the join began
}

// bind enumerates the values of the d-th variable under the bindings of the
// ones before it: the shortest constraint list drives and every candidate
// is looked up in the others by galloping search from where the previous
// candidate left off.
func (j *joiner) bind(d int) error {
	if d == len(j.steps) {
		return j.emit(j.binding)
	}
	st := &j.steps[d]
	drv := 0
	for i, c := range st.cons {
		st.runs[i] = c.fixed
		if c.ix != nil {
			st.runs[i] = c.ix.run(j.binding[c.from])
		}
		if len(st.runs[i]) < len(st.runs[drv]) {
			drv = i
		}
	}
candidates:
	for _, c := range st.runs[drv] {
		if j.tried++; j.tried%pg.CheckInterval == 0 {
			if err := j.m.Check(); err != nil {
				return err
			}
		}
		for i, run := range st.runs {
			if i == drv {
				continue
			}
			k := seek(run, c)
			if k == len(run) {
				return nil // one list is exhausted: no later candidate is in it
			}
			st.runs[i] = run[k:]
			if run[k] != c {
				continue candidates
			}
		}
		j.binding[st.v] = c
		if err := j.bind(d + 1); err != nil {
			return err
		}
	}
	return nil
}

// seek returns the first index of the ascending s whose value is at least
// v, len(s) if there is none: a galloping probe from the front, so a lookup
// a short way in costs the logarithm of that distance, not of len(s).
func seek(s []int32, v int32) int {
	if len(s) == 0 || s[0] >= v {
		return 0
	}
	lo, stride := 0, 1 // s[lo] < v
	for lo+stride < len(s) && s[lo+stride] < v {
		lo += stride
		stride <<= 1
	}
	hi := min(lo+stride, len(s)) // hi == len(s) or s[hi] >= v
	for lo+1 < hi {
		if mid := int(uint(lo+hi) >> 1); s[mid] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
