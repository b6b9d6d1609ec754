package crpq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// served evaluates q the way the engine serves it: compiled to a Plan, then
// Eval.
func served(g *graph.Graph, q *Query, opts Options) (*Result, error) {
	p, err := Compile(g, q, nil)
	if err != nil {
		return nil, err
	}
	return p.Eval(context.Background(), opts)
}

// agreeMaxRows bounds what one generated case may charge — every atom's
// tuples, then the output: the draws that multiply dense relations trip it,
// in the reference and in the served evaluator alike.
const agreeMaxRows = 100_000

// agree fails unless the served evaluator and the reference return the same
// rows in the same order having charged their meters the same states and
// rows — or the same error — at Parallelism 1 and 2.
func agree(t *testing.T, name string, g *graph.Graph, q *Query) {
	t.Helper()
	budget := eval.Budget{MaxRows: agreeMaxRows}
	rm := eval.NewMeter(context.Background(), budget)
	ref, refErr := EvalCtx(context.Background(), g, q, Options{AtomMaxLen: 4, Parallelism: 1, Meter: rm})
	for _, par := range []int{1, 2} {
		m := eval.NewMeter(context.Background(), budget)
		got, err := served(g, q, Options{AtomMaxLen: 4, Parallelism: par, Meter: m})
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%s: %s (parallelism %d): served error %v, reference error %v", name, q, par, err, refErr)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: %s (parallelism %d): served\n%s\nreference\n%s", name, q, par, inOrder(g, got), inOrder(g, ref))
		}
		if err == nil && (m.States() != rm.States() || m.Rows() != rm.Rows()) {
			t.Fatalf("%s: %s (parallelism %d): served charged %d states, %d rows; the reference %d, %d",
				name, q, par, m.States(), m.Rows(), rm.States(), rm.Rows())
		}
	}
}

// inOrder renders a result's rows in the order it holds them.
func inOrder(g *graph.Graph, r *Result) string {
	if r == nil {
		return "<nil>"
	}
	lines := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		lines[i] = formatRow(g, row)
	}
	return strings.Join(lines, "\n")
}

// randomQuery draws a node-only CRPQ over g: 1–4 atoms over at most four
// variable names, so that self-loop atoms, variables repeated across atoms,
// disconnected conjuncts, constants at either end or both, atoms with an
// empty relation (label "none"), starred atoms whose relation holds (v, v),
// and ℓ-RPQ atoms without list variables all come up; the head is a random
// selection of the variables used, often dropping some (so rows need
// dedup), sometimes none, sometimes one twice. A query's atoms draw their
// expressions from a pool of three, so most queries repeat one: atoms that
// share a sweep — a self-join entering one relation from both ends, a
// binary atom beside a filtered one, the same expression from every node
// and from a constant — are the common case, not a hand-picked one. Beyond
// 20 nodes only one atom of a query may be dense (a closure or the
// wildcard, some |N|² pairs): the reference joins pairwise, unmetered, and
// materializes every intermediate result, so two dense atoms that share no
// variable are |N|⁴ rows of it.
func randomQuery(rng *rand.Rand, g *graph.Graph) *Query {
	sparse := []string{"a", "b", "a", "b", "a b", "(a|b)", "a?", "none"}
	all := append([]string{"a*", "b+", "_"}, sparse...)
	exprs := []string{all[rng.Intn(len(all))], all[rng.Intn(len(all))], all[rng.Intn(len(all))]}
	dense := 0
	expr := func() string {
		e := exprs[rng.Intn(len(exprs))]
		if slices.Contains(sparse, e) {
			return e
		}
		if dense++; dense > 1 && g.NumNodes() > 20 {
			return sparse[rng.Intn(len(sparse))]
		}
		return e
	}
	names := []string{"x", "y", "z", "w"}[:2+rng.Intn(3)]
	term := func() Term {
		if rng.Intn(7) == 0 {
			return C(g.NodeID(rng.Intn(g.NumNodes()))) // may be a tombstoned node's ID
		}
		return V(names[rng.Intn(len(names))])
	}
	q := &Query{}
	var used []string
	for i := 1 + rng.Intn(4); i > 0; i-- {
		a := Atom{RPQ: rpq.MustParse(expr()), Src: term(), Dst: term()}
		if rng.Intn(6) == 0 {
			a.L, a.RPQ = lrpq.FromRPQ(a.RPQ), nil
		}
		for _, t := range []Term{a.Src, a.Dst} {
			if !t.IsConst {
				used = append(used, t.Var)
			}
		}
		q.Atoms = append(q.Atoms, a)
	}
	for _, v := range used {
		if rng.Intn(2) == 0 {
			q.Head = append(q.Head, v) // a variable used twice may land in the head twice
		}
	}
	rng.Shuffle(len(q.Head), func(i, j int) { q.Head[i], q.Head[j] = q.Head[j], q.Head[i] })
	return q
}

// TestWCOJAgreesWithEval is the generated differential of the served
// evaluator against the reference: seeded random graphs — small, with node
// indexes ≥ 10, with node indexes ≥ 100 (so the reference's string order,
// in which N12| sorts before N1|, is exercised), and one under a mutation
// overlay with tombstoned nodes — times random node-only CRPQs, rows equal
// and in the same order at Parallelism 1 and 2. The fixed cases it grew
// from lead.
func TestWCOJAgreesWithEval(t *testing.T) {
	fixed := []string{
		"q(x, y, z) :- a(x, y), a(y, z), a(z, x)", // triangle
		"q(x, y) :- a(x, y), b(y, x)",
		"q(x) :- a(x, x)",
		"q(x, z) :- a+(x, y), b(y, z)",
		"q() :- a(x, y), b(y, z)",
		"q(x, y, z, w) :- a(x, y), a(y, z), a(z, w), b(w, x)", // four-cycle
		"q(x, y, z, w) :- b(x, y), a(y, z), b(z, w)",          // chain
		"q(x, y, z) :- a a(x, y), a(y, z), a(z, x)",
		"q(x, y) :- a(x, x), b(y, y)", // cross product of two sets
		"q(y, y) :- a(x, y)",
		"q(x) :- a*(x, y), none(y, z)",
	}
	graphs := map[string]*graph.Graph{}
	for trial := 0; trial < 8; trial++ {
		graphs[fmt.Sprintf("random-8/%d", trial)] = gen.Random(8, 24, []string{"a", "b"}, int64(trial)*17+3)
	}
	graphs["random-40"] = gen.Random(40, 160, []string{"a", "b"}, 5)
	graphs["random-130"] = gen.Random(130, 420, []string{"a", "b", "c"}, 11)
	base := gen.Random(120, 500, []string{"a", "b"}, 23)
	overlay, err := base.Apply([]graph.Mutation{
		{Op: graph.MutRemoveEdge, ID: "e7"},
		{Op: graph.MutRemoveNode, ID: "v3"},
		{Op: graph.MutRemoveNode, ID: "v17"},
		{Op: graph.MutRemoveNode, ID: "v104"},
		{Op: graph.MutAddNode, ID: "fresh"},
		{Op: graph.MutAddEdge, ID: "ov1", Label: "a", Src: "fresh", Tgt: "v9"},
		{Op: graph.MutAddEdge, ID: "ov2", Label: "b", Src: "v110", Tgt: "fresh"},
	})
	if err != nil {
		t.Fatal(err)
	}
	graphs["overlay-120"] = overlay

	drawn, shared := 0, 0
	for name, g := range graphs {
		for _, qs := range fixed {
			agree(t, name, g, MustParse(qs))
		}
		rng := rand.New(rand.NewSource(int64(len(name)) + int64(g.NumEdges())))
		for i := 0; i < 150; i++ {
			q := randomQuery(rng, g)
			if q.Validate() != nil {
				t.Fatalf("generator drew an invalid query: %s", q)
			}
			agree(t, name, g, q)
			drawn++
			if p, err := Compile(g, q, nil); err == nil && len(p.sweeps) < len(p.atoms) {
				shared++
			}
		}
	}
	if 4*shared < drawn {
		t.Errorf("%d of the %d queries drawn share a sweep between atoms: the generator no longer covers sharing", shared, drawn)
	}
}

// TestPlanSharesSweeps: an evaluation sweeps each distinct (expression,
// every node | constant) once — the kernel counters read what those sweeps
// cost standing alone — while the meter reads what the reference, which
// sweeps per atom, charges; and the rows are the reference's.
func TestPlanSharesSweeps(t *testing.T) {
	g := gen.Random(40, 160, []string{"a", "b"}, 5)
	type sweep struct {
		expr string
		src  string // "" for every node
	}
	for _, tc := range []struct {
		name, query string
		distinct    []sweep
	}{
		{"triangle", "q(x, y, z) :- a(x, y), a(y, z), a(z, x)", []sweep{{"a", ""}}},
		{"four-cycle", "q(x, y, z, w) :- a(x, y), a(y, z), a(z, w), b(w, x)", []sweep{{"a", ""}, {"b", ""}}},
		{"chain", "q(x, y, z, w) :- b(x, y), a(y, z), b(z, w)", []sweep{{"b", ""}, {"a", ""}}},
		{"mixed", "q(x, y) :- a*(x, y), a*(y, y), a*(x, @v7), a*(@v7, y), a*(@v7, x), a*(@v9, y)",
			[]sweep{{"a*", ""}, {"a*", "v7"}, {"a*", "v9"}}},
	} {
		q := MustParse(tc.query)
		agree(t, tc.name, g, q)

		var alone pg.Counters
		for _, sw := range tc.distinct {
			kern := eval.NewProductInstrumented(g, rpq.Compile(rpq.MustParse(sw.expr)), &alone).Kernel()
			nothing := func(pg.Runs) error { return nil }
			var err error
			if sw.src == "" {
				err = kern.SweepAll(1, nil, pg.Plan{}, false, nothing)
			} else {
				u, _ := g.NodeIndex(graph.NodeID(sw.src))
				err = kern.SweepFrom([]int{u}, 1, nil, pg.Plan{}, false, nothing)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		ref := eval.NewMeter(context.Background(), eval.Budget{MaxRows: 1 << 40})
		if _, err := EvalCtx(context.Background(), g, q, Options{Parallelism: 1, Meter: ref}); err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2} {
			var c pg.Counters
			p, err := Compile(g, q, &c)
			if err != nil {
				t.Fatal(err)
			}
			m := eval.NewMeter(context.Background(), eval.Budget{MaxRows: 1 << 40})
			if _, err := p.Eval(context.Background(), Options{Parallelism: par, Meter: m}); err != nil {
				t.Fatal(err)
			}
			if got, want := c.Snapshot().StatesExpanded, alone.Snapshot().StatesExpanded; got != want || want == 0 {
				t.Errorf("%s (parallelism %d): the kernels expanded %d states, the %d distinct sweeps alone %d",
					tc.name, par, got, len(tc.distinct), want)
			}
			if m.States() != ref.States() || m.Rows() != ref.Rows() || m.States() <= c.Snapshot().StatesExpanded {
				t.Errorf("%s (parallelism %d): meter reads %d states, %d rows; the reference %d, %d (the kernels expanded %d)",
					tc.name, par, m.States(), m.Rows(), ref.States(), ref.Rows(), c.Snapshot().StatesExpanded)
			}
		}
	}
}

func TestWCOJConstants(t *testing.T) {
	g := gen.BankEdgeLabeled()
	q := MustParse("q(y) :- Transfer(@a3, y), Transfer(y, @a6)")
	agree(t, "bank", g, q)
	got, err := served(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0][0].Format(g) != "a4" {
		t.Errorf("a3→y→a6 should give y = a4:\n%s", got.Format(g))
	}
	agree(t, "bank", g, MustParse("q() :- Transfer(@a3, @a4)"))
	agree(t, "bank", g, MustParse("q() :- Transfer(@a4, @a3), Transfer(x, y)"))
	// Unknown constants, at either end and behind a good atom, fail with the
	// reference's error.
	for _, qs := range []string{
		"q(y) :- Transfer(@nope, y)",
		"q(y) :- Transfer(y, @nope)",
		"q(y) :- Transfer(@a3, y), owner(@nope, @nope2)",
	} {
		if _, err := served(g, MustParse(qs), Options{}); err == nil {
			t.Errorf("%q: unknown constant should fail", qs)
		}
		agree(t, "bank", g, MustParse(qs))
	}
	// So do queries that do not validate.
	bad := &Query{Head: []string{"nowhere"}, Atoms: []Atom{{RPQ: rpq.MustParse("Transfer"), Src: V("x"), Dst: V("y")}}}
	if _, err := served(g, bad, Options{}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("invalid query: err = %v, want ErrInvalidQuery", err)
	}
	agree(t, "bank", g, bad)
}

// TestWCOJEligibility: a query outside the kernel fragment compiles to a
// plan that runs the reference, and gives the reference's result.
func TestWCOJEligibility(t *testing.T) {
	g := gen.BankEdgeLabeled()
	outside := []string{
		"q(z) :- (Transfer^z)+(x, y)",               // list variable
		"q(x) :- shortest Transfer(x, y)",           // path mode
		"q(x) :- () [Transfer] () (x, y)",           // dl-RPQ atom
		"q(x) :- Transfer(x, y), trail owner(y, z)", // one atom is enough
	}
	for _, qs := range outside {
		p, err := Compile(g, MustParse(qs), nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.OnKernel() {
			t.Errorf("%q: compiled onto the kernel", qs)
		}
		agree(t, "bank", g, MustParse(qs))
	}
	inside := &Query{Head: []string{"x"}, Atoms: []Atom{{L: lrpq.MustParse("Transfer Transfer"), Src: V("x"), Dst: V("y")}}}
	if p, err := Compile(g, inside, nil); err != nil || !p.OnKernel() {
		t.Errorf("ℓ-RPQ atom without list variables: on kernel %v, err %v", p.OnKernel(), err)
	}
}

// TestWCOJTriangleOnBank: the Example 13 q1 triangle, served.
func TestWCOJTriangleOnBank(t *testing.T) {
	g := gen.BankEdgeLabeled()
	q := MustParse("q(x1, x2, x3) :- Transfer(x1, x2), Transfer(x1, x3), Transfer(x2, x3)")
	res, err := served(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || !res.Contains(g, "a3, a2, a4") || !res.Contains(g, "a6, a3, a5") {
		t.Errorf("q1 served:\n%s", res.Format(g))
	}
}

// TestPlanBudgets: the served evaluator charges the meter what the
// reference charges — every atom's relation as it is delivered, then every
// output row — so a rows budget trips on the same queries with the same
// error, inside an atom's delivery or on output row MaxRows+1, and a states
// budget does too.
func TestPlanBudgets(t *testing.T) {
	g := gen.Random(40, 160, []string{"a", "b"}, 5)
	q := MustParse("q(x, y, z) :- a(x, y), a(y, z), b(z, x)")
	free, err := served(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := eval.NewMeter(context.Background(), eval.Budget{MaxRows: 1 << 40})
	if _, err := served(g, q, Options{Meter: m}); err != nil {
		t.Fatal(err)
	}
	total := m.Rows() // both a relations, the b relation, the output
	if len(free.Rows) == 0 || total <= int64(len(free.Rows)) {
		t.Fatalf("%d output rows of %d charged: the case does not cover both trips", len(free.Rows), total)
	}
	for _, b := range []eval.Budget{
		{MaxRows: 1},                             // inside the first atom's delivery
		{MaxRows: total - int64(len(free.Rows))}, // on the first output row
		{MaxRows: total - 1},                     // on the last output row
		{MaxRows: total},                         // fits exactly
		{MaxStates: 8},                           // inside the first sweep
	} {
		for _, par := range []int{1, 2} {
			ref, refErr := EvalCtx(context.Background(), g, q, Options{Parallelism: par, Budget: b})
			p, err := Compile(g, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Eval(context.Background(), Options{Parallelism: par, Budget: b})
			if fmt.Sprint(err) != fmt.Sprint(refErr) || !reflect.DeepEqual(got, ref) {
				t.Errorf("budget %+v parallelism %d: served (%d rows, %v), reference (%d rows, %v)",
					b, par, rowCount(got), err, rowCount(ref), refErr)
			}
			if wantErr := b.MaxStates > 0 || b.MaxRows < total; wantErr != errors.Is(err, eval.ErrBudgetExceeded) {
				t.Errorf("budget %+v: err = %v, want a budget error: %v", b, err, wantErr)
			}
		}
	}
}

// TestPlanConcurrentEval: a Plan sits in the engine's plan cache and serves
// every request for its text at once, so evaluations may share nothing
// they write (this test is for the race detector as much as for the rows).
func TestPlanConcurrentEval(t *testing.T) {
	g := gen.Random(40, 160, []string{"a", "b"}, 5)
	q := MustParse("q(x, z) :- a(x, y), b(y, z), a*(z, @v7)")
	p, err := Compile(g, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Eval(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				got, err := p.Eval(context.Background(), Options{Parallelism: 2})
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent Eval: err %v, %d rows, want %d", err, rowCount(got), len(want.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
}

func rowCount(r *Result) int {
	if r == nil {
		return -1
	}
	return len(r.Rows)
}

// TestOrderKey: the integer a cell sorts by orders node indexes exactly as
// the reference's string key does.
func TestOrderKey(t *testing.T) {
	idx := []int32{0, 1, 2, 9, 10, 11, 12, 19, 20, 99, 100, 101, 109, 110, 120, 999, 1000, 1234, 12345, 1 << 20, 1<<31 - 1}
	for _, a := range idx {
		for _, b := range idx {
			want := strings.Compare(OutValue{Node: int(a)}.key()+"|", OutValue{Node: int(b)}.key()+"|")
			got := 0
			if ka, kb := orderKey(a), orderKey(b); ka < kb {
				got = -1
			} else if ka > kb {
				got = 1
			}
			if got != want {
				t.Errorf("orderKey(%d) vs orderKey(%d) = %d, string keys compare %d", a, b, got, want)
			}
		}
	}
}
