package experiments

import (
	"fmt"
	"io"

	"graphquery/internal/crpq"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/gql"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/rpq"
)

func init() {
	register(Experiment{
		ID:    "E01",
		Title: "Example 12: Transfer* on the Figure 2 graph",
		Claim: "returns the complete set {a1..a6}×{a1..a6} (36 pairs)",
		Run:   runE01,
	})
	register(Experiment{
		ID:    "E02",
		Title: "Example 13: CRPQs q1 and q2 on the Figure 2 graph",
		Claim: "q1 = {(a3,a2,a4),(a6,a3,a5)}; (a4,Rebecca,no) ∈ q2",
		Run:   runE02,
	})
	register(Experiment{
		ID:    "E03",
		Title: "Example 1: GQL iteration vs repeated variables",
		Claim: "(x)(()-[z:a]->()){2}(y) binds a 2-edge list; repeated-z variants match only self-loops",
		Run:   runE03,
	})
	register(Experiment{
		ID:    "E04",
		Title: "Example 2: node vs group variable role flip",
		Claim: "inside an iteration x joins (self-loop); under the star x collects a list",
		Run:   runE04,
	})
	register(Experiment{
		ID:    "E05",
		Title: "Example 16: ℓ-RPQ (Transfer^z)*·isBlocked",
		Claim: "returns the path bindings µ1..µ5 listed in the paper",
		Run:   runE05,
	})
	register(Experiment{
		ID:    "E06",
		Title: "Example 17: shortest grouped by endpoint pairs",
		Claim: "Jay→Rebecca selects list(t10); Mike→Megan selects list(t7,t4)",
		Run:   runE06,
	})
	register(Experiment{
		ID:    "E07",
		Title: "Example 21: increasing dates on nodes AND edges (dl-RPQs)",
		Claim: "both directions expressible; 3,4,1,2 rejected",
		Run:   runE07,
	})
}

func runE01(w io.Writer) error {
	g := gen.BankEdgeLabeled()
	pairs := eval.Pairs(g, rpq.MustParse("Transfer*"))
	accounts := map[int]bool{}
	for _, id := range []graph.NodeID{"a1", "a2", "a3", "a4", "a5", "a6"} {
		accounts[g.MustNode(id)] = true
	}
	n := 0
	for _, pr := range pairs {
		if accounts[pr[0]] && accounts[pr[1]] {
			n++
		}
	}
	t := newTable("measure", "value")
	t.add("account pairs in ⟦Transfer*⟧", n)
	t.add("expected", 36)
	t.write(w)
	return nil
}

func runE02(w io.Writer) error {
	g := gen.BankEdgeLabeled()
	q1, err := crpq.Parse("q(x1, x2, x3) :- Transfer(x1, x2), Transfer(x1, x3), Transfer(x2, x3)")
	if err != nil {
		return err
	}
	r1, err := crpq.Eval(g, q1, crpq.Options{})
	if err != nil {
		return err
	}
	q2, err := crpq.Parse("q(x, x1, x2) :- owner(y, x1), isBlocked(y, x2), Transfer Transfer? (x, y)")
	if err != nil {
		return err
	}
	r2, err := crpq.Eval(g, q2, crpq.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  q1 rows:")
	fmt.Fprintln(w, indent(r1.Format(g), "    "))
	fmt.Fprintf(w, "  q2 contains (a4, Rebecca, no): %v  (of %d rows)\n",
		r2.Contains(g, "a4, Rebecca, no"), len(r2.Rows))
	return nil
}

func runE03(w io.Writer) error {
	g := gen.APath(2, "a")
	loop := gen.Cycle(1, "a")
	unit := gql.Concat(gql.AnonNode(), gql.EdgeL("z", "a"), gql.AnonNode())
	grouped := gql.Concat(gql.Node("x"), gql.Repeat(unit, 2, 2), gql.Node("y"))
	joined := gql.Concat(gql.Node("x"), unit, unit, gql.Node("y"))
	separate := gql.Concat(gql.Node("x"),
		gql.Concat(gql.AnonNode(), gql.EdgeL("z", "a"), gql.AnonNode()),
		gql.Concat(gql.AnonNode(), gql.EdgeL("z1", "a"), gql.AnonNode()),
		gql.Node("y"))

	count2 := func(gr *graph.Graph, p gql.Pattern) int {
		ms, err := gql.EvalPattern(gr, p, gql.Options{})
		if err != nil {
			return -1
		}
		n := 0
		for _, m := range ms {
			if m.Path.Len() == 2 {
				n++
			}
		}
		return n
	}
	t := newTable("pattern", "2-edge matches on a-path", "2-edge matches on self-loop")
	t.add("(x)(()-[z:a]->()){2}(y)", count2(g, grouped), count2(loop, grouped))
	t.add("(x)()-[z:a]->()()-[z:a]->()(y)", count2(g, joined), count2(loop, joined))
	t.add("(x)()-[z:a]->()()-[z1:a]->()(y)", count2(g, separate), count2(loop, separate))
	t.write(w)
	fmt.Fprintln(w, "  (the {2} form collects z = list of two edges; repeated z forces a join)")
	return nil
}

func runE04(w io.Writer) error {
	g := graphBuilderE04()
	unit := gql.Concat(gql.Node("x"), gql.AnonEdgeL("a"), gql.Node("x"), gql.AnonEdgeL("a"))
	ms, err := gql.EvalPattern(g, gql.Repeat(unit, 2, 2), gql.Options{})
	if err != nil {
		return err
	}
	t := newTable("match path", "x binding")
	for _, m := range ms {
		if m.Path.Len() == 4 {
			t.add(m.Path.Format(g), m.Binding["x"].Format(g))
		}
	}
	t.write(w)
	return nil
}

func runE05(w io.Writer) error {
	g := gen.BankEdgeLabeled()
	res, err := lrpq.Eval(g, lrpq.MustParse("(Transfer^z)* isBlocked"), lrpq.Options{MaxLen: 3})
	if err != nil {
		return err
	}
	t := newTable("path", "binding")
	for _, pb := range res {
		t.add(pb.Path.Format(g), pb.Binding.Format(g))
	}
	t.write(w)
	return nil
}

func runE06(w io.Writer) error {
	g := gen.BankEdgeLabeled()
	q, err := crpq.Parse("q(x1, x2, z) :- owner(y1, x1), owner(y2, x2), shortest (Transfer^z)+(y1, y2)")
	if err != nil {
		return err
	}
	res, err := crpq.Eval(g, q, crpq.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, indent(res.Format(g), "  "))
	fmt.Fprintf(w, "  per-pair shortest: Jay,Rebecca,list(t10) present: %v; Mike,Megan,list(t7, t4) present: %v\n",
		res.Contains(g, "Jay, Rebecca, list(t10)"), res.Contains(g, "Mike, Megan, list(t7, t4)"))

	// Ablation: global shortest drops the length-2 row.
	abl, err := crpq.Eval(g, q, crpq.Options{GlobalModes: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  ablation (global shortest): Mike,Megan row survives: %v (expected false)\n",
		abl.Contains(g, "Mike, Megan, list(t7, t4)"))
	return nil
}

func indent(s, pad string) string {
	lines := splitLines(s)
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return joinLines(lines)
}
