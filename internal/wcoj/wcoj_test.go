package wcoj

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"graphquery/internal/pg"
)

// relOf builds a relation over [0, n) from pairs in any order, duplicates
// allowed, handing them to Append the way a sweep would: sorted, distinct,
// a few sources to a batch.
func relOf(n int, pairs ...[2]int) *Rel {
	ps := slices.Clone(pairs)
	slices.SortFunc(ps, func(a, b [2]int) int { return slices.Compare(a[:], b[:]) })
	ps = slices.Compact(ps)
	r := NewRel(n)
	for len(ps) > 0 {
		k := min(3, len(ps))
		for k < len(ps) && ps[k][0] == ps[k-1][0] {
			k++ // a batch carries whole sources
		}
		r.Append(runsOf(ps[:k]))
		ps = ps[k:]
	}
	r.Seal()
	return r
}

// runsOf is one batch of sorted, distinct pairs as the runs a sweep hands
// out.
func runsOf(ps [][2]int) pg.Runs {
	var part pg.Runs
	for i, p := range ps {
		if i == 0 || p[0] != ps[i-1][0] {
			part.Src, part.End = append(part.Src, int32(p[0])), append(part.End, 0)
		}
		part.Tgt = append(part.Tgt, int32(p[1]))
		part.End[len(part.End)-1]++
	}
	for i := 1; i < len(part.End); i++ {
		part.End[i] += part.End[i-1]
	}
	return part
}

// rows collects the assignments of q, sorted.
func rows(t *testing.T, q *Query) [][]int32 {
	t.Helper()
	var out [][]int32
	err := q.Enumerate(nil, func(b []int32) error {
		out = append(out, slices.Clone(b))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(out, slices.Compare[[]int32])
	return out
}

func TestTriangleQuery(t *testing.T) {
	// Edges of a directed triangle 0→1→2→0 plus a distractor 0→3.
	r := relOf(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}, [2]int{0, 3})
	q := &Query{NumVars: 3, Atoms: []Atom{{r, 0, 1}, {r, 1, 2}, {r, 2, 0}}}
	// The directed triangle appears once per rotation.
	want := [][]int32{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}}
	if got := rows(t, q); !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
		t.Fatalf("triangles = %v, want %v", got, want)
	}
}

// TestSelfLoopAtom: an atom with one variable at both ends reaches the join
// as a set — the sources whose sweep returned themselves — and intersects
// with whatever else constrains the variable.
func TestSelfLoopAtom(t *testing.T) {
	r := relOf(5, [2]int{0, 1}, [2]int{3, 4}, [2]int{4, 0})
	q := &Query{NumVars: 2, Atoms: []Atom{{r, 0, 1}}, Sets: []Set{{Vals: []int32{0, 2, 3}, X: 0}}}
	want := [][]int32{{0, 1}, {3, 4}}
	if got := rows(t, q); !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	only := &Query{NumVars: 1, Sets: []Set{{Vals: []int32{0, 3}, X: 0}, {Vals: []int32{3, 4}, X: 0}}}
	if got := rows(t, only); len(got) != 1 || got[0][0] != 3 {
		t.Fatalf("two sets on one variable = %v, want [[3]]", got)
	}
}

// TestOrderFollowsMeasuredSizes: the variable order is read off the relation
// sizes — start in the smallest relation at its source end, extend through
// the smallest relation touching a bound variable, sets first when smaller —
// and the target-major index exists only where a step enters from there.
func TestOrderFollowsMeasuredSizes(t *testing.T) {
	big := relOf(6, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4}, [2]int{4, 5})
	mid := relOf(6, [2]int{1, 0}, [2]int{2, 0}, [2]int{5, 3})
	small := relOf(6, [2]int{3, 0}, [2]int{4, 1})
	order := func(q *Query) []int {
		var vs []int
		for _, st := range q.plan() {
			vs = append(vs, st.v)
		}
		return vs
	}
	// big(0,1), mid(1,2), small(2,3): start at small's source 2, extend
	// through small to 3, then mid to 1, then big to 0.
	q := &Query{NumVars: 4, Atoms: []Atom{{big, 0, 1}, {mid, 1, 2}, {small, 2, 3}}}
	if got := order(q); !slices.Equal(got, []int{2, 3, 1, 0}) {
		t.Errorf("order = %v, want [2 3 1 0]", got)
	}
	if big.rev.off == nil || mid.rev.off == nil || small.rev.off != nil {
		t.Errorf("target-major indexes built: big %v mid %v small %v, want true true false",
			big.rev.off != nil, mid.rev.off != nil, small.rev.off != nil)
	}
	// A one-value set on variable 0 is smaller than everything: 0 first.
	q.Sets = []Set{{Vals: []int32{4}, X: 0}}
	if got := order(q); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Errorf("order with a set = %v, want [0 1 2 3]", got)
	}
	// Disconnected conjuncts: each component starts in its smallest relation.
	cross := &Query{NumVars: 4, Atoms: []Atom{{relOf(6, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}), 0, 1}, {relOf(6, [2]int{3, 0}, [2]int{4, 1}), 2, 3}}}
	if got := order(cross); !slices.Equal(got, []int{2, 3, 0, 1}) {
		t.Errorf("cross-product order = %v, want [2 3 0 1]", got)
	}
	if got := rows(t, cross); len(got) != 6 {
		t.Errorf("cross product has %d rows, want 6", len(got))
	}
}

func TestEmptyIntersection(t *testing.T) {
	q := &Query{NumVars: 3, Atoms: []Atom{
		{relOf(4, [2]int{0, 1}), 0, 1},
		{relOf(4, [2]int{2, 3}), 1, 2},
	}}
	if got := rows(t, q); len(got) != 0 {
		t.Errorf("rows = %v, want none", got)
	}
	empty := &Query{NumVars: 2, Atoms: []Atom{{relOf(4), 0, 1}}}
	if got := rows(t, empty); len(got) != 0 {
		t.Errorf("rows over an empty relation = %v, want none", got)
	}
	// No variables at all: the one empty assignment.
	if got := rows(t, &Query{}); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("rows of the empty conjunction = %v, want one empty row", got)
	}
}

// TestAgainstBruteForce cross-checks random cyclic and acyclic shapes, with
// and without sets, over relations of very different sizes (so the order
// starts and extends through different atoms from trial to trial).
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 7
	shapes := [][][2]int{
		{{0, 1}, {1, 2}, {2, 0}},         // triangle
		{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, // four-cycle
		{{0, 1}, {1, 2}, {2, 3}},         // chain
		{{0, 1}, {0, 1}},                 // two atoms over the same pair
		{{0, 1}, {1, 0}},                 // two-cycle
		{{0, 1}, {2, 3}},                 // cross product
		{{1, 0}, {2, 0}, {0, 3}},         // star
	}
	for trial := 0; trial < 200; trial++ {
		shape := shapes[trial%len(shapes)]
		q := &Query{}
		var pairs [][][2]int
		for _, xy := range shape {
			var ps [][2]int
			for i := rng.Intn(25); i > 0; i-- {
				ps = append(ps, [2]int{rng.Intn(n), rng.Intn(n)})
			}
			pairs = append(pairs, ps)
			q.Atoms = append(q.Atoms, Atom{relOf(n, ps...), xy[0], xy[1]})
			q.NumVars = max(q.NumVars, xy[0]+1, xy[1]+1)
		}
		if trial%3 == 0 {
			set := Set{X: rng.Intn(q.NumVars)}
			for v := int32(0); v < n; v++ {
				if rng.Intn(2) == 0 {
					set.Vals = append(set.Vals, v)
				}
			}
			q.Sets = append(q.Sets, set)
		}
		var want [][]int32
		b := make([]int32, q.NumVars)
		var brute func(d int)
		brute = func(d int) {
			if d < q.NumVars {
				for b[d] = 0; b[d] < n; b[d]++ {
					brute(d + 1)
				}
				return
			}
			for i, xy := range shape {
				if !slices.Contains(pairs[i], [2]int{int(b[xy[0]]), int(b[xy[1]])}) {
					return
				}
			}
			for _, s := range q.Sets {
				if !slices.Contains(s.Vals, b[s.X]) {
					return
				}
			}
			want = append(want, slices.Clone(b))
		}
		brute(0)
		if got := rows(t, q); !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
			t.Fatalf("trial %d shape %v: join\n%v\nbrute force\n%v", trial, shape, got, want)
		}
	}
}

// TestRelLen: a relation holds the pairs it was appended, source-major and,
// on demand, target-major with each target's sources ascending.
func TestRelLen(t *testing.T) {
	r := relOf(4, [2]int{2, 1}, [2]int{0, 1}, [2]int{0, 1}, [2]int{0, 3}, [2]int{2, 3})
	if r.Len() != 4 {
		t.Errorf("Len = %d, want 4", r.Len())
	}
	if got := r.fwd.run(0); !slices.Equal(got, []int32{1, 3}) {
		t.Errorf("targets of 0 = %v, want [1 3]", got)
	}
	if got := r.fwd.run(1); len(got) != 0 {
		t.Errorf("targets of 1 = %v, want none", got)
	}
	if got := r.byTarget().run(3); !slices.Equal(got, []int32{0, 2}) {
		t.Errorf("sources of 3 = %v, want [0 2]", got)
	}
	if got := r.fwd.keys(); !slices.Equal(got, []int32{0, 2}) {
		t.Errorf("sources = %v, want [0 2]", got)
	}
	if got := r.byTarget().keys(); !slices.Equal(got, []int32{1, 3}) {
		t.Errorf("targets = %v, want [1 3]", got)
	}
}

// TestIntersectSorted: seek is the probe the candidate intersection is made
// of — the first position at or after a value, from the front of the run.
func TestIntersectSorted(t *testing.T) {
	s := []int32{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21}
	for v := int32(0); v <= 23; v++ {
		want, _ := slices.BinarySearch(s, v)
		if got := seek(s, v); got != want {
			t.Errorf("seek(%v, %d) = %d, want %d", s, v, got, want)
		}
	}
	if got := seek(nil, 4); got != 0 {
		t.Errorf("seek(nil, 4) = %d, want 0", got)
	}
}

// TestEnumerateStops: the join polls its meter every pg.CheckInterval
// candidate values, and an error from emit ends it at once.
func TestEnumerateStops(t *testing.T) {
	const n = 64
	var all [][2]int
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			all = append(all, [2]int{u, v})
		}
	}
	r := relOf(n, all...)
	q := &Query{NumVars: 3, Atoms: []Atom{{r, 0, 1}, {r, 1, 2}, {r, 2, 0}}}

	ctx, cancel := context.WithCancel(context.Background())
	emitted := 0
	err := q.Enumerate(pg.NewMeter(ctx, pg.Budget{}, nil, nil), func([]int32) error {
		if emitted++; emitted == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, pg.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// Every candidate of the innermost variable is emitted here, so the
	// cancellation is seen within one check interval of emits.
	if emitted > 10+pg.CheckInterval {
		t.Errorf("join emitted %d rows after a cancel at row 10; check interval is %d", emitted, pg.CheckInterval)
	}

	stop := errors.New("stop")
	emitted = 0
	err = q.Enumerate(nil, func([]int32) error {
		emitted++
		return stop
	})
	if err != stop || emitted != 1 {
		t.Errorf("err = %v after %d rows, want the emit error after 1", err, emitted)
	}
}
