package experiments

import (
	"fmt"
	"io"
	"time"

	"graphquery/internal/automata"
	"graphquery/internal/dlrpq"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/pmr"
	"graphquery/internal/rpq"
	"graphquery/internal/spanner"
)

func init() {
	register(Experiment{
		ID:    "E16",
		Title: "§6.2: product-construction RPQ evaluation scaling",
		Claim: "all-pairs evaluation scales with |G|·|A|; unambiguous automata count paths exactly",
		Run:   runE16,
	})
	register(Experiment{
		ID:    "E19",
		Title: "§6.3: path modes — shortest/all vs simple/trail",
		Claim: "simple/trail are NP-hard in general but feasible on practice-like graphs",
		Run:   runE19,
	})
	register(Experiment{
		ID:    "E20",
		Title: "§6.3: data filters force longer (even cyclic) shortest paths",
		Claim: "Mike→Rebecca with one cheap transfer: len 3; with two: len 4 via a cycle",
		Run:   runE20,
	})
	register(Experiment{
		ID:    "E22",
		Title: "§6.2: automata sizes over an RPQ workload",
		Claim: "unambiguous/deterministic automata need not exceed expression size in practice (cf. SPARQL-log study)",
		Run:   runE22,
	})
	register(Experiment{
		ID:    "E23",
		Title: "§6.4/7.1: k-shortest path enumeration",
		Claim: "per-answer delay stays flat as k grows (Eppstein's direction)",
		Run:   runE23,
	})
	register(Experiment{
		ID:    "E24",
		Title: "§6.3: document spanners — annotating positions",
		Claim: "all capture mappings enumerable; output can be quadratic in document length",
		Run:   runE24,
	})
}

func runE16(w io.Writer) error {
	expr := rpq.MustParse("a (a | b)* b")
	t := newTable("nodes", "edges", "all-pairs answers", "time")
	for _, n := range []int{50, 100, 200, 400} {
		g := gen.Random(n, 4*n, []string{"a", "b"}, 42)
		start := time.Now()
		pairs := eval.Pairs(g, expr)
		t.add(n, 4*n, len(pairs), time.Since(start).Round(time.Microsecond))
	}
	t.write(w)

	// Counting via unambiguous automata, validated on Figure 5.
	g := gen.Figure5(10)
	r, err := pmr.FromKernel(eval.CompileProduct(g, rpq.MustParse("a*")).Kernel(), g.MustNode("s"), g.MustNode("t"), nil)
	if err != nil {
		return err
	}
	count, _ := r.Cardinality()
	fmt.Fprintf(w, "  Figure-5(10) path count via unambiguous product: %s (expected 1024)\n", count)
	return nil
}

func runE19(w io.Writer) error {
	expr := lrpq.MustParse("(a | knows | follows)+")
	t := newTable("graph", "mode", "exists src→dst", "time")
	// Practice-like: preferential-attachment social graph. knows-edges
	// point from newer members to older ones, so late → early is the
	// reachable direction.
	social := gen.Social(300, 7)
	sSrc, sDst := social.NumNodes()-1, 0
	// Adversarial: dense bidirectional grid.
	grid := gen.Grid(5, 5, "a")
	gSrc, gDst := 0, grid.NumNodes()-1

	// Existence under shortest is the product search between the anchors;
	// under simple and trail it is the first result of the restricted
	// search (the NP-complete problem of Section 6.3).
	exists := func(g *graph.Graph, src, dst int, mode eval.Mode) (bool, error) {
		plan := lrpq.NewPlan(eval.CompileProduct(g, lrpq.Erase(expr)).Kernel(), expr)
		if mode == eval.Shortest {
			meet, err := plan.Search(src, dst, nil)
			return err == nil && meet.Len >= 0, err
		}
		res, err := plan.Between(src, dst, mode, lrpq.Options{Limit: 1})
		return len(res) > 0, err
	}
	for _, c := range []struct {
		name     string
		g        *graph.Graph
		src, dst int
	}{{"social(300)", social, sSrc, sDst}, {"grid(5×5)", grid, gSrc, gDst}} {
		for _, mode := range []eval.Mode{eval.Shortest, eval.Trail, eval.Simple} {
			start := time.Now()
			ok, err := exists(c.g, c.src, c.dst, mode)
			if err != nil {
				return err
			}
			t.add(c.name, mode, ok, time.Since(start).Round(time.Microsecond))
		}
	}
	t.write(w)

	// Enumerating ALL simple paths on grids shows the exponential trend.
	tt := newTable("grid", "simple paths corner→corner", "time")
	for _, k := range []int{3, 4} {
		g := gen.Grid(k, k, "a")
		start := time.Now()
		paths, err := lrpq.EvalBetween(g, lrpq.MustParse("a+"), 0, g.NumNodes()-1, eval.Simple, lrpq.Options{})
		if err != nil {
			return err
		}
		tt.add(fmt.Sprintf("%d×%d", k, k), len(paths), time.Since(start).Round(time.Millisecond))
	}
	tt.write(w)
	return nil
}

func runE20(w io.Writer) error {
	g := gen.BankProperty()
	mike, rebecca := g.MustNode("a3"), g.MustNode("a5")
	queries := []struct {
		name string
		expr string
	}{
		{"unfiltered", "() {[Transfer]()}+"},
		{"≥1 transfer < 4.5M", "() {[Transfer]()}* [Transfer][amount < 4500000] () {[Transfer]()}*"},
		{"≥2 transfers < 4.5M", "() {[Transfer]()}* [Transfer][amount < 4500000] () {[Transfer]()}* [Transfer][amount < 4500000] () {[Transfer]()}*"},
	}
	t := newTable("query", "shortest length", "path", "trail?")
	for _, q := range queries {
		res, err := dlrpq.EvalBetween(g, dlrpq.MustParse(q.expr), mike, rebecca, eval.Shortest, dlrpq.Options{})
		if err != nil {
			return err
		}
		if len(res) == 0 {
			t.add(q.name, "-", "no result", "-")
			continue
		}
		p := res[0].Path
		t.add(q.name, p.Len(), p.Format(g), p.IsTrail())
	}
	t.write(w)
	return nil
}

func runE22(w io.Writer) error {
	workload := []string{
		"a", "a*", "a | b", "(a b)*", "a (a | b)* b", "a{2,5}",
		"(a | b | c)+ d?", "!{a} _*", "(a* b*)*", "a? b? c?",
	}
	// Size is measured on the desugared expression (counted repetitions
	// expand, matching how the SPARQL-log study sizes expressions), and
	// the DFA is counted without its dead sink.
	t := newTable("expression", "size", "NFA states", "unambiguous", "min DFA states (live)", "DFA ≤ size+1")
	allWithin := true
	for _, q := range workload {
		e := rpq.MustParse(q)
		size := rpq.Size(rpq.Desugar(e))
		nfa := rpq.Compile(e)
		dfa := nfa.Determinize().Minimize()
		live := liveStates(dfa)
		within := live <= size+1
		if !within {
			allWithin = false
		}
		t.add(q, size, nfa.NumStates, nfa.IsUnambiguous(), live, within)
	}
	t.write(w)
	fmt.Fprintf(w, "  deterministic automaton within desugared size (+1) for all: %v\n", allWithin)
	return nil
}

func runE23(w io.Writer) error {
	g := gen.Random(200, 800, []string{"a"}, 11)
	t := newTable("k", "answers", "total time", "per-answer")
	for _, k := range []int{1, 10, 100, 500} {
		start := time.Now()
		r, err := pmr.FromKernel(eval.CompileProduct(g, rpq.MustParse("a+")).Kernel(), 0, 1, nil)
		if err != nil {
			return err
		}
		walks, err := r.Enumerate(k, nil)
		if err != nil {
			return err
		}
		el := time.Since(start)
		per := time.Duration(0)
		if len(walks) > 0 {
			per = el / time.Duration(len(walks))
		}
		t.add(k, len(walks), el.Round(time.Microsecond), per.Round(time.Microsecond))
	}
	t.write(w)
	return nil
}

func runE24(w io.Writer) error {
	t := newTable("doc length", "captures of x{a .*}", "time")
	for _, n := range []int{16, 32, 64} {
		doc := ""
		for i := 0; i < n; i++ {
			if i%4 == 0 {
				doc += "a"
			} else {
				doc += "b"
			}
		}
		start := time.Now()
		ms := spanner.Extract(doc, spanner.Cap("x", spanner.Seq(spanner.Lit("a"), spanner.Star(spanner.Dot()))))
		t.add(n, len(ms), time.Since(start).Round(time.Microsecond))
	}
	t.write(w)
	fmt.Fprintln(w, "  (every a-start × every end position: the quadratically many mappings of §6.3)")
	return nil
}

// liveStates counts DFA states from which an accepting state is reachable
// (i.e. excluding the dead sink, which trim-based size comparisons omit).
func liveStates(d *automata.DFA) int {
	n := d.NumStates()
	rev := make([][]int, n)
	for q := 0; q < n; q++ {
		for _, to := range d.Next[q] {
			rev[to] = append(rev[to], q)
		}
	}
	live := make([]bool, n)
	var stack []int
	for q := 0; q < n; q++ {
		if d.Accept[q] {
			live[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[q] {
			if !live[p] {
				live[p] = true
				stack = append(stack, p)
			}
		}
	}
	count := 0
	for _, l := range live {
		if l {
			count++
		}
	}
	return count
}
