package experiments

import (
	"fmt"
	"io"
	"time"

	"graphquery/internal/bag"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/pmr"
	"graphquery/internal/rpq"
)

func init() {
	register(Experiment{
		ID:    "E15",
		Title: "§6.1 Boom!: (((a*)*)*)* on k-cliques under bag semantics",
		Claim: "the 6-clique count exceeds the number of protons in the observable universe; set semantics returns k² pairs",
		Run:   runE15,
	})
	register(Experiment{
		ID:    "E17",
		Title: "Figure 5: 2ⁿ shortest paths vs Θ(n)-size PMR",
		Claim: "PMRs represent exponentially many (or infinitely many) paths in linear space",
		Run:   runE17,
	})
	register(Experiment{
		ID:    "E18",
		Title: "§6.3: (aa^z + a^z a)* on a 2n-edge path",
		Claim: "a list variable generates 2ⁿ bindings on a single matched path",
		Run:   runE18,
	})
	register(Experiment{
		ID:    "E21",
		Title: "§6.4: PMR for the unblocked Mike→Mike transfer cycles",
		Claim: "a 3-node PMR represents the infinite cycle language (t7·t4·t1)*",
		Run:   runE21,
	})
}

func runE15(w io.Writer) error {
	nested := rpq.MustParse("(((a*)*)*)*")
	t := newTable("k", "bag answers (total multiplicity)", "digits", "set answers", "set time")
	for k := 2; k <= 6; k++ {
		g := gen.Clique(k, "a")
		total := bag.TotalCount(g, nested)
		start := time.Now()
		setPairs := len(eval.Pairs(g, rpq.Simplify(nested)))
		setTime := time.Since(start)
		digits := len(total.String())
		rendered := total.String()
		if digits > 24 {
			rendered = rendered[:10] + "…e" + fmt.Sprint(digits-1)
		}
		t.add(k, rendered, digits, setPairs, setTime.Round(time.Microsecond))
	}
	t.write(w)
	fmt.Fprintln(w, "  (protons in the observable universe ≈ 10⁸⁰; compare the k=6 digit count)")
	return nil
}

func runE17(w io.Writer) error {
	t := newTable("n", "shortest paths (2ⁿ)", "PMR size (nodes+edges)", "PMR build", "full enumeration")
	for _, n := range []int{4, 8, 12, 16, 18} {
		g := gen.Figure5(n)
		s, tt := g.MustNode("s"), g.MustNode("t")
		start := time.Now()
		r, err := pmr.ShortestFromKernel(eval.CompileProduct(g, rpq.MustParse("a*")).Kernel(), s, tt, nil)
		if err != nil {
			return err
		}
		count, _ := r.Cardinality()
		buildTime := time.Since(start)

		start = time.Now()
		if _, err := r.Enumerate(1<<uint(n), nil); err != nil {
			return err
		}
		enumTime := time.Since(start)
		t.add(n, count.String(), r.Size(), buildTime.Round(time.Microsecond), enumTime.Round(time.Microsecond))
	}
	t.write(w)
	return nil
}

func runE18(w io.Writer) error {
	e := lrpq.MustParse("(a a^z | a^z a)*")
	t := newTable("n", "path edges (2n)", "distinct bindings (2ⁿ)")
	for _, n := range []int{2, 4, 8, 12} {
		g := gen.APath(2*n, "a")
		pbs, err := lrpq.EvalBetween(g, lrpq.MustParse("(a a)*"),
			g.MustNode("v0"), g.MustNode(nodeID("v", 2*n)), eval.Shortest, lrpq.Options{})
		if err != nil {
			return err
		}
		bindings := lrpq.BindingsOnPath(g, e, pbs[0].Path)
		t.add(n, 2*n, len(bindings))
	}
	t.write(w)
	return nil
}

func runE21(w io.Writer) error {
	g := gen.BankProperty()
	a3, a5, a1 := g.MustNode("a3"), g.MustNode("a5"), g.MustNode("a1")
	r, err := pmr.New(g,
		[]int{a3, a5, a1},
		[]pmr.Edge{
			{Src: 0, Tgt: 1, GEdge: g.MustEdge("t7")},
			{Src: 1, Tgt: 2, GEdge: g.MustEdge("t4")},
			{Src: 2, Tgt: 0, GEdge: g.MustEdge("t1")},
		},
		[]int{0}, []int{0})
	if err != nil {
		return err
	}
	_, infinite := r.Cardinality()
	t := newTable("measure", "value")
	t.add("PMR size", r.Size())
	t.add("represented path set infinite", infinite)
	t.write(w)
	cycles, err := r.Enumerate(3, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  first cycles:")
	for _, p := range cycles {
		fmt.Fprintf(w, "    %s\n", p.Format(g))
	}
	return nil
}

func nodeID(prefix string, i int) graph.NodeID {
	return graph.NodeID(fmt.Sprintf("%s%d", prefix, i))
}
