package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"graphquery/internal/cardest"
	"graphquery/internal/crpq"
	"graphquery/internal/gen"
	"graphquery/internal/gql"
	"graphquery/internal/graph"
	"graphquery/internal/regular"
	"graphquery/internal/rpq"
	"graphquery/internal/twoway"
)

func init() {
	register(Experiment{
		ID:    "E25",
		Title: "§4.2: deduplication depends on variable naming (GQL)",
		Claim: "query results can change when an anonymous element is given a name [35, §6]",
		Run:   runE25,
	})
	register(Experiment{
		ID:    "E26",
		Title: "Remark 9: two-way navigation (2RPQs)",
		Claim: "the one-way framework extends easily with inverse atoms",
		Run:   runE26,
	})
	register(Experiment{
		ID:    "E27",
		Title: "§7.1: cardinality estimation for RPQs",
		Claim: "an open direction — a statistics-based estimator and its q-errors",
		Run:   runE27,
	})
	register(Experiment{
		ID:    "E28",
		Title: "§3.1.3 / Example 15: nested CRPQs (regular queries)",
		Claim: "closures of query-defined virtual edges become expressible with nesting",
		Run:   runE28,
	})
	register(Experiment{
		ID:    "E29",
		Title: "§7.1: static analysis — RPQ containment",
		Claim: "containment is decidable for RPQs via automata inclusion",
		Run:   runE29,
	})
}

func runE25(w io.Writer) error {
	// Two parallel a-edges u→v. Projecting the match table onto its bound
	// variables: with the edge anonymous the table has ONE row (u, v); with
	// the edge named z it has TWO rows (u, v, e1), (u, v, e2).
	g := graph.NewBuilder().
		AddNode("u", "", nil).AddNode("v", "", nil).
		AddEdge("e1", "a", "u", "v", nil).
		AddEdge("e2", "a", "u", "v", nil).
		MustBuild()
	countRows := func(p gql.Pattern) (int, error) {
		ms, err := gql.EvalPattern(g, p, gql.Options{})
		if err != nil {
			return 0, err
		}
		rows := map[string]struct{}{}
		for _, m := range ms {
			vars := make([]string, 0, len(m.Binding))
			for v := range m.Binding {
				vars = append(vars, v)
			}
			sort.Strings(vars)
			var b strings.Builder
			for _, v := range vars {
				b.WriteString(v + "=" + m.Binding[v].Format(g) + ";")
			}
			rows[b.String()] = struct{}{}
		}
		return len(rows), nil
	}
	anon, err := countRows(gql.Concat(gql.Node("x"), gql.AnonEdgeL("a"), gql.Node("y")))
	if err != nil {
		return err
	}
	named, err := countRows(gql.Concat(gql.Node("x"), gql.EdgeL("z", "a"), gql.Node("y")))
	if err != nil {
		return err
	}
	t := newTable("pattern", "distinct output rows")
	t.add("(x)-[:a]->(y)   (anonymous)", anon)
	t.add("(x)-[z:a]->(y)  (named)", named)
	t.write(w)
	fmt.Fprintln(w, "  (same graph, same structure — naming the edge changes the deduplicated result)")
	return nil
}

func runE26(w io.Writer) error {
	g := gen.BankEdgeLabeled()
	// Co-owned accounts: owner · ~owner.
	pairs := twoway.Pairs(g, twoway.MustParse("owner ~owner"))
	var coowned []string
	for _, pr := range pairs {
		a, b := g.Node(pr[0]).ID, g.Node(pr[1]).ID
		if a != b && strings.HasPrefix(string(a), "a") {
			coowned = append(coowned, fmt.Sprintf("(%s,%s)", a, b))
		}
	}
	t := newTable("2RPQ", "answers")
	t.add("owner ~owner (co-owned, excl. reflexive)", strings.Join(coowned, " "))
	seq, ok := twoway.Witness(g, twoway.MustParse("~owner Transfer+ owner"),
		g.MustNode("Mike"), g.MustNode("Megan"))
	var names []string
	for _, n := range seq {
		names = append(names, string(g.Node(n).ID))
	}
	t.add("witness Mike → Megan (~owner Transfer+ owner)", fmt.Sprintf("%v (found=%v)", names, ok))
	t.write(w)
	return nil
}

func runE27(w io.Writer) error {
	queries := []string{"a", "b", "a b", "a | b", "a a b", "a{2,3}", "a*", "(a b)+"}
	t := newTable("query", "actual |⟦R⟧|", "estimate", "q-error")
	for _, seed := range []int64{3} {
		g := gen.Random(80, 320, []string{"a", "b"}, seed)
		rows, err := cardest.Compare(g, queries)
		if err != nil {
			return err
		}
		for _, r := range rows {
			t.add(r.Query, r.Actual, fmt.Sprintf("%.1f", r.Estimate), fmt.Sprintf("%.2f", r.QError))
		}
	}
	t.write(w)
	fmt.Fprintln(w, "  (independence-assumption estimator; uniform random graphs are its best case)")
	return nil
}

func runE28(w io.Writer) error {
	g := graph.NewBuilder().
		AddNode("u", "", nil).AddNode("v", "", nil).
		AddNode("w", "", nil).AddNode("x", "", nil).
		AddEdge("e1", "Transfer", "u", "v", nil).
		AddEdge("e2", "Transfer", "v", "u", nil).
		AddEdge("e3", "Transfer", "v", "w", nil).
		AddEdge("e4", "Transfer", "w", "v", nil).
		AddEdge("e5", "Transfer", "w", "x", nil).
		MustBuild()
	flat, err := crpq.Eval(g, crpq.MustParse("q(x, y) :- Transfer(x, y), Transfer(y, x)"), crpq.Options{})
	if err != nil {
		return err
	}
	nested, err := regular.Eval(g, regular.MustParse(`
		Vedge(x, y) :- Transfer(x, y), Transfer(y, x)
		q(a, b) :- Vedge+(a, b)
	`), crpq.Options{})
	if err != nil {
		return err
	}
	t := newTable("query", "pairs", "(u,w) connected")
	t.add("flat q1 (Example 14)", len(flat.Rows), flat.Contains(g, "u, w"))
	t.add("nested (q1)*+ (Example 15)", len(nested.Rows), nested.Contains(g, "u, w"))
	t.write(w)
	fmt.Fprintln(w, "  (the flat CRPQ cannot close the virtual edges; the regular query can)")
	return nil
}

func runE29(w io.Writer) error {
	cases := [][2]string{
		{"(a a)*", "a*"},
		{"a*", "(a a)*"},
		{"a{2,4}", "a+"},
		{"(a b)+", "a (b a)* b"},
		{"!{a}", "_"},
		{"_", "!{a}"},
	}
	t := newTable("L(A) ⊆ L(B)?", "A", "B", "result")
	for _, c := range cases {
		res := rpq.Contained(rpq.MustParse(c[0]), rpq.MustParse(c[1]))
		t.add("", c[0], c[1], res)
	}
	t.write(w)
	return nil
}

func init() {
	register(Experiment{
		ID:    "E30",
		Title: "§7.1: worst-case-optimal joins for CRPQs",
		Claim: "pairwise join plans can blow up on cyclic conjunctions; an attribute-at-a-time plan avoids it",
		Run:   runE30,
	})
}

func runE30(w io.Writer) error {
	q := crpq.MustParse("q(x, y, z) :- a(x, y), a(y, z), a(z, x)")
	t := newTable("n nodes (8n edges)", "triangles", "pairwise join", "worst-case-optimal")
	for _, n := range []int{40, 80, 160} {
		g := gen.Random(n, 8*n, []string{"a"}, 21)
		startPW := timeNow()
		ref, err := crpq.Eval(g, q, crpq.Options{})
		if err != nil {
			return err
		}
		pwTime := timeSince(startPW)
		startW := timeNow()
		plan, err := crpq.Compile(g, q, nil)
		if err != nil {
			return err
		}
		got, err := plan.Eval(crpq.Options{})
		if err != nil {
			return err
		}
		wTime := timeSince(startW)
		if ref.Format(g) != got.Format(g) {
			return fmt.Errorf("wcoj and pairwise disagree on n=%d", n)
		}
		t.add(n, len(ref.Rows), pwTime, wTime)
	}
	t.write(w)
	return nil
}
