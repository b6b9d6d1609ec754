// Package crpq implements conjunctive regular path queries and their
// extensions from the paper: plain CRPQs (Section 3.1.2), CRPQs with list
// variables and path modes (ℓ-CRPQs, Section 3.1.5), and CRPQs with data
// tests and list variables (dl-CRPQs, Section 3.2.2) — the paper's primary
// formalism.
//
// A query has the form
//
//	q(x₁,…,x_k) :- m₁ R₁(y₁,y′₁), …, m_n R_n(y_n,y′_n)
//
// where each m_i is a path mode, each R_i is an RPQ / ℓ-RPQ / dl-RPQ, and
// the terms may be node variables or constant nodes (footnote 3). The
// well-formedness conditions (1)–(5) of Section 3.1.5 are enforced by
// Validate. Path modes apply after endpoint selection (restricted path
// homomorphisms; Example 17's per-endpoint-pair shortest), with an optional
// ablation that applies them globally instead.
package crpq

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"graphquery/internal/dlrpq"
	"graphquery/internal/eval"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// Term is an endpoint of an atom: a node variable or a constant node ID.
type Term struct {
	Var     string
	Const   graph.NodeID
	IsConst bool
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(id graph.NodeID) Term { return Term{Const: id, IsConst: true} }

func (t Term) String() string {
	if t.IsConst {
		return "@" + string(t.Const)
	}
	return t.Var
}

// Atom is one conjunct m R(y, y′). Exactly one of RPQ, L, DL is set.
type Atom struct {
	Mode eval.Mode

	RPQ rpq.Expr   // plain regular path query
	L   lrpq.Expr  // RPQ with list variables
	DL  dlrpq.Expr // RPQ with data tests and list variables

	Src, Dst Term
}

// vars returns the atom's list variables Var(R_i).
func (a Atom) vars() []string {
	switch {
	case a.L != nil:
		return lrpq.Vars(a.L)
	case a.DL != nil:
		return dlrpq.Vars(a.DL)
	default:
		return nil
	}
}

func (a Atom) exprString() string {
	switch {
	case a.RPQ != nil:
		return a.RPQ.String()
	case a.L != nil:
		return a.L.String()
	case a.DL != nil:
		return a.DL.String()
	default:
		return "<empty>"
	}
}

func (a Atom) String() string {
	body := fmt.Sprintf("%s(%s, %s)", a.exprString(), a.Src, a.Dst)
	// Mode all is written out only where the parser would otherwise read
	// the expression's first label (one named trail, say) as the mode.
	if _, rest := cutMode(body); a.Mode != eval.All || rest != body {
		return a.Mode.String() + " " + body
	}
	return body
}

// Query is a (dl-)CRPQ.
type Query struct {
	// Head lists the output variables x₁,…,x_k (node or list variables).
	Head []string
	// Atoms are the conjuncts.
	Atoms []Atom
}

func (q *Query) String() string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	return fmt.Sprintf("q(%s) :- %s", strings.Join(q.Head, ", "), strings.Join(parts, ", "))
}

// nodeVars returns the sorted node variables of the query.
func (q *Query) nodeVars() []string {
	set := map[string]struct{}{}
	for _, a := range q.Atoms {
		for _, t := range []Term{a.Src, a.Dst} {
			if !t.IsConst {
				set[t.Var] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// ErrInvalidQuery wraps all well-formedness violations.
var ErrInvalidQuery = errors.New("crpq: invalid query")

// Validate enforces conditions (1)–(5) of Section 3.1.5:
//
//	(2) every atom has exactly one expression;
//	(3) list variables are disjoint from node variables;
//	(4) list variables are disjoint across atoms;
//	(5) head variables appear among node or list variables.
//
// (Condition (1), m_i being a known mode, holds by construction of
// eval.Mode.) It also refuses an atom whose RPQ or ℓ-RPQ is larger than
// any evaluator — the served plan or the reference — will compile
// (rpq.CheckPositions): queries are text from outside.
func (q *Query) Validate() error {
	nodeVars := map[string]struct{}{}
	for _, a := range q.Atoms {
		n := 0
		var size error
		if a.RPQ != nil {
			n++
			size = rpq.CheckPositions(a.RPQ)
		}
		if a.L != nil {
			n++
			size = rpq.CheckPositions(lrpq.Erase(a.L))
		}
		if a.DL != nil {
			n++
		}
		if n != 1 {
			return fmt.Errorf("%w: atom %s must carry exactly one expression", ErrInvalidQuery, a)
		}
		if size != nil {
			return fmt.Errorf("%w: atom %s: %w", ErrInvalidQuery, a, size)
		}
		for _, t := range []Term{a.Src, a.Dst} {
			if !t.IsConst {
				if t.Var == "" {
					return fmt.Errorf("%w: empty variable in atom %s", ErrInvalidQuery, a)
				}
				nodeVars[t.Var] = struct{}{}
			}
		}
	}
	listVars := map[string]int{} // variable -> atom index
	for i, a := range q.Atoms {
		for _, z := range a.vars() {
			if _, clash := nodeVars[z]; clash {
				return fmt.Errorf("%w: variable %q used both as node and list variable (condition 3)", ErrInvalidQuery, z)
			}
			if j, dup := listVars[z]; dup {
				return fmt.Errorf("%w: list variable %q shared by atoms %d and %d (condition 4)", ErrInvalidQuery, z, j, i)
			}
			listVars[z] = i
		}
	}
	for _, x := range q.Head {
		_, isNode := nodeVars[x]
		_, isList := listVars[x]
		if !isNode && !isList {
			return fmt.Errorf("%w: head variable %q not bound by any atom (condition 5)", ErrInvalidQuery, x)
		}
	}
	return nil
}

// OutValue is one cell of an output tuple: a node or a list of graph
// objects bound to a list variable.
type OutValue struct {
	IsList bool
	Node   int
	List   gpath.List
}

func (v OutValue) key() string {
	if v.IsList {
		return "L" + v.List.Key()
	}
	return fmt.Sprintf("N%d", v.Node)
}

// Format renders the value with external IDs.
func (v OutValue) Format(g *graph.Graph) string {
	if v.IsList {
		return v.List.Format(g)
	}
	return string(g.Node(v.Node).ID)
}

// Result is the output of a query: tuples over the head variables.
type Result struct {
	Head []string
	Rows [][]OutValue
}

// Contains reports whether the result contains the given rendered row
// (formatted values joined by the separator ", "), a convenience for tests.
func (r *Result) Contains(g *graph.Graph, rendered string) bool {
	for _, row := range r.Rows {
		if formatRow(g, row) == rendered {
			return true
		}
	}
	return false
}

func formatRow(g *graph.Graph, row []OutValue) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.Format(g)
	}
	return strings.Join(parts, ", ")
}

// Format renders all rows, one per line, sorted.
func (r *Result) Format(g *graph.Graph) string {
	lines := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		lines[i] = formatRow(g, row)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Options configure evaluation.
type Options struct {
	// AtomMaxLen bounds path length for mode-all atoms that carry list
	// variables (their result sets may be infinite; Section 6.3). Atoms
	// without list variables reduce to reachability and need no bound.
	AtomMaxLen int
	// GlobalModes applies each path mode to the atom's full result set
	// before endpoint selection instead of per endpoint pair — the ablation
	// for the design decision behind Example 17. Off by default.
	GlobalModes bool
	// Parallelism caps the worker goroutines used for per-source atom
	// materialization; 0 means one per available CPU, 1 forces the
	// sequential path. Output is identical either way.
	Parallelism int
	// Budget caps per-query resources for EvalCtx; zero means unlimited.
	// MaxRows counts materialized tuples (atom relations and output rows),
	// since atom materialization is where combinatorial blowup happens.
	Budget eval.Budget
	// Meter, when non-nil, overrides ctx+Budget: the shared instrument a
	// serving layer threads through every atom of one query.
	Meter *eval.Meter
}

// Eval computes q(G) (set semantics). It validates the query first.
func Eval(g *graph.Graph, q *Query, opts Options) (*Result, error) {
	return EvalCtx(context.Background(), g, q, opts)
}

// EvalCtx is Eval under a context and the budget carried by opts: atom
// materialization (including its parallel per-source fan-out) checks the
// shared meter cooperatively, so a canceled context or an exhausted budget
// stops every worker and surfaces eval.ErrCanceled / eval.ErrBudgetExceeded.
func EvalCtx(ctx context.Context, g *graph.Graph, q *Query, opts Options) (*Result, error) {
	if opts.Meter == nil {
		opts.Meter = eval.NewMeter(ctx, opts.Budget)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// Evaluate each atom to a relation over (src-var?, dst-var?, list vars).
	type atomRel struct {
		attrs  []string // variable names, in column order
		tuples [][]OutValue
	}
	rels := make([]atomRel, len(q.Atoms))
	for i, a := range q.Atoms {
		rel, err := evalAtom(g, a, opts)
		if err != nil {
			return nil, fmt.Errorf("atom %d (%s): %w", i, a, err)
		}
		rels[i] = rel
	}
	// Fold with hash joins on shared node variables.
	acc := atomRel{attrs: nil, tuples: [][]OutValue{{}}}
	for _, r := range rels {
		acc = joinRels(acc, r)
	}
	// Project the head.
	cols := make([]int, len(q.Head))
	for i, x := range q.Head {
		cols[i] = -1
		for j, a := range acc.attrs {
			if a == x {
				cols[i] = j
				break
			}
		}
		if cols[i] == -1 {
			// Head variable bound by an atom but absent from results (no
			// tuples): yields the empty result.
			return &Result{Head: append([]string(nil), q.Head...)}, nil
		}
	}
	out := &Result{Head: append([]string(nil), q.Head...)}
	seen := map[string]struct{}{}
	var keys []string // keys[i] is the key of out.Rows[i]
	for _, t := range acc.tuples {
		row := make([]OutValue, len(cols))
		var kb strings.Builder
		for i, c := range cols {
			row[i] = t[c]
			kb.WriteString(row[i].key())
			kb.WriteByte('|')
		}
		if _, dup := seen[kb.String()]; dup {
			continue
		}
		seen[kb.String()] = struct{}{}
		if err := opts.Meter.AddRows(1); err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
		keys = append(keys, kb.String())
	}
	sort.Sort(byKey{keys, out.Rows})
	return out, nil
}

// byKey sorts result rows by the keys the dedup loop built for them.
type byKey struct {
	keys []string
	rows [][]OutValue
}

func (s byKey) Len() int           { return len(s.keys) }
func (s byKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s byKey) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}

type atomRelT = struct {
	attrs  []string
	tuples [][]OutValue
}

// joinRels natural-joins two variable relations on shared attributes.
func joinRels(a, b atomRelT) atomRelT {
	shared := [][2]int{}
	extra := []int{}
	outAttrs := append([]string(nil), a.attrs...)
	for j, attr := range b.attrs {
		found := false
		for i, aa := range a.attrs {
			if aa == attr {
				shared = append(shared, [2]int{i, j})
				found = true
				break
			}
		}
		if !found {
			extra = append(extra, j)
			outAttrs = append(outAttrs, attr)
		}
	}
	mk := func(t []OutValue, cols []int) string {
		var sb strings.Builder
		for _, p := range cols {
			sb.WriteString(t[p].key())
			sb.WriteByte('|')
		}
		return sb.String()
	}
	aCols := make([]int, len(shared))
	bCols := make([]int, len(shared))
	for i, p := range shared {
		aCols[i], bCols[i] = p[0], p[1]
	}
	buckets := map[string][]int{}
	for i, t := range b.tuples {
		buckets[mk(t, bCols)] = append(buckets[mk(t, bCols)], i)
	}
	var outTuples [][]OutValue
	for _, t := range a.tuples {
		for _, bi := range buckets[mk(t, aCols)] {
			bt := b.tuples[bi]
			row := make([]OutValue, 0, len(outAttrs))
			row = append(row, t...)
			for _, c := range extra {
				row = append(row, bt[c])
			}
			outTuples = append(outTuples, row)
		}
	}
	return atomRelT{attrs: outAttrs, tuples: outTuples}
}

// evalAtom computes the atom's relation over its variables.
func evalAtom(g *graph.Graph, a Atom, opts Options) (atomRelT, error) {
	srcCandidates, err := termCandidates(g, a.Src)
	if err != nil {
		return atomRelT{}, err
	}
	dstConst := -1
	if a.Dst.IsConst {
		if dstConst, err = constNode(g, a.Dst); err != nil {
			return atomRelT{}, err
		}
	}
	listVars := a.vars()

	var attrs []string
	if !a.Src.IsConst {
		attrs = append(attrs, a.Src.Var)
	}
	if !a.Dst.IsConst && (a.Src.IsConst || a.Dst.Var != a.Src.Var) {
		attrs = append(attrs, a.Dst.Var)
	}
	attrs = append(attrs, listVars...)

	// Fast path: no list variables and mode all ⇒ only existence matters
	// (distinct paths yield the same tuple).
	existenceOnly := len(listVars) == 0 && a.Mode == eval.All
	// Existence of ℓ-RPQ matches without variables is plain reachability.
	rpqExpr := a.RPQ
	if existenceOnly && a.L != nil {
		rpqExpr = lrpq.Erase(a.L)
	}

	sameVar := !a.Src.IsConst && !a.Dst.IsConst && a.Src.Var == a.Dst.Var

	addTuple := func(rows [][]OutValue, u, v int, mu gpath.Binding) [][]OutValue {
		row := make([]OutValue, 0, len(attrs))
		if !a.Src.IsConst {
			row = append(row, OutValue{Node: u})
		}
		if !a.Dst.IsConst && (a.Src.IsConst || a.Dst.Var != a.Src.Var) {
			row = append(row, OutValue{Node: v})
		}
		for _, z := range listVars {
			row = append(row, OutValue{IsList: true, List: mu.Get(z)})
		}
		return append(rows, row)
	}

	if existenceOnly && rpqExpr != nil {
		// Existence over a plain automaton is reachability: the kernel's
		// all-sources driver sweeps every source candidate (one product,
		// compiled once per atom) and hands back (source, target) pairs,
		// sources in candidate order and each source's targets ascending.
		// A target is a destination candidate if it is the constant, or,
		// for a variable, always: removing a node removes its edges, so a
		// sweep from a live source reaches live nodes only.
		kern := eval.CompileProduct(g, rpqExpr).Kernel()
		var tuples [][]OutValue
		err := kern.SweepFrom(srcCandidates, eval.Parallelism(opts.Parallelism), opts.Meter, pg.Plan{}, false,
			func(part pg.Runs) error {
				before := len(tuples)
				for i, src := range part.Src {
					for _, tgt := range part.Targets(i) {
						if sameVar && src != tgt || dstConst >= 0 && int(tgt) != dstConst {
							continue
						}
						tuples = addTuple(tuples, int(src), int(tgt), nil)
					}
				}
				return opts.Meter.AddRows(int64(len(tuples) - before))
			})
		if err != nil {
			return atomRelT{}, err
		}
		return atomRelT{attrs: attrs, tuples: tuples}, nil
	}

	dstCandidates, err := termCandidates(g, a.Dst)
	if err != nil {
		return atomRelT{}, err
	}
	perSource := func(u int) ([][]OutValue, error) {
		var rows [][]OutValue
		for _, v := range dstCandidates {
			if sameVar && u != v {
				continue
			}
			mode := a.Mode
			if existenceOnly {
				// A shortest witness decides existence even for dl-RPQ
				// atoms, whose mode-all result sets may be infinite.
				mode = eval.Shortest
			}
			pbs, err := evalAtomBetweenMode(g, a, u, v, mode, opts)
			if err != nil {
				return nil, err
			}
			if existenceOnly {
				if len(pbs) > 0 {
					rows = addTuple(rows, u, v, nil)
				}
				continue
			}
			seen := map[string]struct{}{}
			for _, pb := range pbs {
				k := pb.Binding.Key()
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				rows = addTuple(rows, u, v, pb.Binding)
			}
		}
		return rows, nil
	}

	tuples, err := overSources(srcCandidates, opts.Parallelism, opts.Meter, perSource)
	if err != nil {
		return atomRelT{}, err
	}
	if opts.GlobalModes && !existenceOnly && a.Mode == eval.Shortest {
		tuples = globalShortestFilter(g, a, tuples, attrs, opts)
	}
	return atomRelT{attrs: attrs, tuples: tuples}, nil
}

// overSources runs fn once per source node through the runtime's parallel
// fan-out (pg.ForEachEmit): per-source results are appended in source
// order, so the relation is identical to the sequential loop's. The meter
// m, when non-nil, is polled between sources, and a first error stops
// every worker from claiming further sources.
func overSources(sources []int, parallelism int, m *eval.Meter, fn func(u int) ([][]OutValue, error)) ([][]OutValue, error) {
	var out [][]OutValue
	err := pg.ForEachEmit(len(sources), eval.Parallelism(parallelism), nil, nil,
		func(i int, _ struct{}) ([][]OutValue, error) {
			if err := m.Check(); err != nil {
				return nil, err
			}
			return fn(sources[i])
		},
		func(part [][]OutValue) error {
			out = append(out, part...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// evalAtomBetween dispatches to the right evaluator with the atom's mode.
func evalAtomBetween(g *graph.Graph, a Atom, u, v int, opts Options) ([]gpath.PathBinding, error) {
	return evalAtomBetweenMode(g, a, u, v, a.Mode, opts)
}

func evalAtomBetweenMode(g *graph.Graph, a Atom, u, v int, mode eval.Mode, opts Options) ([]gpath.PathBinding, error) {
	evalOpts := lrpq.Options{MaxLen: opts.AtomMaxLen, Meter: opts.Meter}
	switch {
	case a.RPQ != nil:
		le := lrpq.FromRPQ(a.RPQ)
		return lrpq.EvalBetween(g, le, u, v, mode, evalOpts)
	case a.L != nil:
		return lrpq.EvalBetween(g, a.L, u, v, mode, evalOpts)
	case a.DL != nil:
		return dlrpq.EvalBetween(g, a.DL, u, v, mode, dlrpq.Options{MaxLen: opts.AtomMaxLen, Meter: opts.Meter})
	default:
		return nil, fmt.Errorf("crpq: empty atom")
	}
}

// globalShortestFilter implements the GlobalModes ablation for shortest: it
// re-evaluates the atom keeping only tuples whose witnessing path length
// equals the global minimum across all endpoint pairs. Because tuples do
// not record path lengths, the filter recomputes per-pair minima.
func globalShortestFilter(g *graph.Graph, a Atom, tuples [][]OutValue, attrs []string, opts Options) [][]OutValue {
	// Find the per-pair shortest lengths and the global minimum.
	type pair struct{ u, v int }
	minLen := map[pair]int{}
	global := -1
	srcs, _ := termCandidates(g, a.Src)
	dsts, _ := termCandidates(g, a.Dst)
	for _, u := range srcs {
		for _, v := range dsts {
			pbs, err := evalAtomBetween(g, a, u, v, opts)
			if err != nil || len(pbs) == 0 {
				continue
			}
			l := pbs[0].Path.Len()
			minLen[pair{u, v}] = l
			if global == -1 || l < global {
				global = l
			}
		}
	}
	if global == -1 {
		return nil
	}
	// Keep tuples whose endpoint pair achieves the global minimum.
	uCol, vCol := -1, -1
	for i, at := range attrs {
		if !a.Src.IsConst && at == a.Src.Var && uCol == -1 {
			uCol = i
		} else if !a.Dst.IsConst && at == a.Dst.Var {
			vCol = i
		}
	}
	resolve := func(t []OutValue, col int, term Term) int {
		if term.IsConst {
			n, _ := g.NodeIndex(term.Const)
			return n
		}
		return t[col].Node
	}
	var out [][]OutValue
	for _, t := range tuples {
		u := resolve(t, uCol, a.Src)
		v := resolve(t, vCol, a.Dst)
		if vCol == -1 && !a.Dst.IsConst {
			v = u // shared src/dst variable
		}
		if l, ok := minLen[pair{u, v}]; ok && l == global {
			out = append(out, t)
		}
	}
	return out
}

// constNode resolves a constant term to its node.
func constNode(g *graph.Graph, t Term) (int, error) {
	n, ok := g.NodeIndex(t.Const)
	if !ok {
		return 0, fmt.Errorf("crpq: unknown constant node %q", t.Const)
	}
	return n, nil
}

func termCandidates(g *graph.Graph, t Term) ([]int, error) {
	if t.IsConst {
		n, err := constNode(g, t)
		if err != nil {
			return nil, err
		}
		return []int{n}, nil
	}
	out := make([]int, 0, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		if g.NodeAlive(i) { // skip tombstones under a mutation overlay
			out = append(out, i)
		}
	}
	return out, nil
}
