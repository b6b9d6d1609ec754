package pg

import "sort"

// Runs is the one form (source, target) pairs take between the sweep that
// finds them and whoever consumes them — the join's relations, the row
// encoder, a collecting wrapper at the library boundary (DESIGN §21). It is
// a sequence of runs: run i is the source Src[i] and its targets
// Tgt[End[i-1]:End[i]] (from 0 for the first), ascending and never empty,
// so read in order the pairs are sorted by target within each source and
// the pair count is len(Tgt). All three slices of a Runs made by this
// package share one backing array, which nothing else refers to: whoever is
// handed a Runs owns it.
type Runs struct {
	Src []int32
	End []int32
	Tgt []int32
}

// NewRuns returns a Runs with room for k runs holding pairs targets in all,
// its lengths set and its contents zero, in one allocation.
func NewRuns(k, pairs int) Runs {
	buf := make([]int32, 2*k+pairs)
	return Runs{Src: buf[:k:k], End: buf[k : 2*k : 2*k], Tgt: buf[2*k:]}
}

// Len returns the number of pairs.
func (r Runs) Len() int { return len(r.Tgt) }

// Targets returns the targets of run i.
func (r Runs) Targets(i int) []int32 {
	lo := int32(0)
	if i > 0 {
		lo = r.End[i-1]
	}
	return r.Tgt[lo:r.End[i]]
}

// Find returns the run that holds pair number row, len(Src) if there is
// none.
func (r Runs) Find(row int) int {
	return sort.Search(len(r.End), func(i int) bool { return int(r.End[i]) > row })
}

// Head returns the first k runs, sharing r's arrays.
func (r Runs) Head(k int) Runs {
	if k == 0 {
		return Runs{}
	}
	return Runs{Src: r.Src[:k], End: r.End[:k], Tgt: r.Tgt[:r.End[k-1]]}
}
