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
	"strconv"
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

// addPositions adds the automaton positions of a's expression to *total,
// refusing a when it alone, or the atoms up to it together, pass
// rpq.MaxPositions: every atom compiles an automaton of its own.
func addPositions(total *int, a Atom) error {
	var n int
	switch {
	case a.RPQ != nil:
		n = rpq.Positions(a.RPQ, 1<<30)
	case a.L != nil:
		n = rpq.Positions(a.L, 1<<30)
	default:
		n = rpq.Positions(a.DL, 1<<30)
	}
	if err := rpq.PositionsError(n); err != nil {
		return fmt.Errorf("%w: atom %s: %w", ErrInvalidQuery, a, err)
	}
	*total += n
	if err := rpq.PositionsError(*total); err != nil {
		return fmt.Errorf("%w: the atoms up to %s together: %w", ErrInvalidQuery, a, err)
	}
	return nil
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
// eval.Mode.) It also refuses an atom whose RPQ, ℓ-RPQ or dl-RPQ is larger
// than any evaluator — the served plan or the reference — will compile
// (rpq.CheckPositions): queries are text from outside.
func (q *Query) Validate() error {
	nodeVars := map[string]struct{}{}
	positions := 0
	for _, a := range q.Atoms {
		n := 0
		if a.RPQ != nil {
			n++
		}
		if a.L != nil {
			n++
		}
		if a.DL != nil {
			n++
		}
		if n != 1 {
			return fmt.Errorf("%w: atom %s must carry exactly one expression", ErrInvalidQuery, a)
		}
		if err := addPositions(&positions, a); err != nil {
			return err
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

// appendKey appends the value's key to b: N and the node index, or L and
// the list's key.
func (v OutValue) appendKey(b []byte) []byte {
	if v.IsList {
		return append(append(b, 'L'), v.List.Key()...)
	}
	return strconv.AppendInt(append(b, 'N'), int64(v.Node), 10)
}

// appendRowKey appends to b the key of t's cells at cols, each followed by
// a '|'.
func appendRowKey(b []byte, t []OutValue, cols []int) []byte {
	for _, c := range cols {
		b = append(t[c].appendKey(b), '|')
	}
	return b
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
	// Meter stops and charges evaluation: the shared instrument a serving
	// layer threads through every atom of one query. Its rows budget counts
	// materialized tuples (atom relations and output rows), since atom
	// materialization is where combinatorial blowup happens. Nil means
	// unmetered.
	Meter *pg.Meter
}

// EvalCtx is Eval with the meter minted from ctx, with no budget, when
// opts.Meter is nil. No evaluator calls it — each is stopped only through
// the meter it is handed — but the benchmark harness does.
func EvalCtx(ctx context.Context, g *graph.Graph, q *Query, opts Options) (*Result, error) {
	if opts.Meter == nil {
		opts.Meter = pg.NewMeter(ctx, pg.Budget{}, nil, nil)
	}
	return Eval(g, q, opts)
}

// Eval computes q(G) (set semantics): the reference evaluator, which tests,
// the fuzzer and the benchmark's oracle compare the served Plan against. It
// validates the query first, materializes every atom to a relation of
// OutValue tuples — an atom inside the kernel fragment by a sweep of a
// kernel of its own, any other by its tier's plan between every pair of
// endpoints (tierRel) — and joins them pairwise on string keys. Atom
// materialization (including its parallel per-source fan-out) checks
// opts.Meter cooperatively, so a canceled context or an exhausted budget
// stops every worker and surfaces pg.ErrCanceled / pg.ErrBudgetExceeded.
func Eval(g *graph.Graph, q *Query, opts Options) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// Evaluate each atom to a relation over (src-var?, dst-var?, list vars).
	rels := make([]atomRelT, len(q.Atoms))
	for i, a := range q.Atoms {
		var rel atomRelT
		var err error
		if expr := sweptExpr(a); expr != nil {
			rel, err = sweptRel(g, a, expr, opts)
		} else {
			rel, err = tierRel(g, a, tierPlan(g, a, Kernels(g)), opts)
		}
		if err != nil {
			return nil, fmt.Errorf("atom %d (%s): %w", i, a, err)
		}
		rels[i] = rel
	}
	return joinProject(rels, q.Head, opts.Meter)
}

// Kernels is the kernel source Compile takes for a caller that keeps no
// kernel cache: a product kernel with g compiled for every expression it is
// asked for. Compile asks once per distinct expression of a query.
func Kernels(g *graph.Graph) func(rpq.Expr) *pg.Kernel {
	return func(e rpq.Expr) *pg.Kernel { return eval.CompileProduct(g, e).Kernel() }
}

// EvalPlan computes q(G) the way it is served, on its Plan, for a caller
// that keeps no plan: Compile with Kernels(g), then Plan.Eval.
func EvalPlan(g *graph.Graph, q *Query, opts Options) (*Result, error) {
	p, err := Compile(g, q, Kernels(g))
	if err != nil {
		return nil, err
	}
	return p.Eval(opts)
}

// joinProject folds the atom relations with hash joins on shared node
// variables and projects the head, deduplicated and sorted. Every output
// row is charged to m's rows budget; the join and the projection poll m
// every pg.CheckInterval tuples, so a cancel or a deadline stops them
// mid-relation.
func joinProject(rels []atomRelT, head []string, m *pg.Meter) (*Result, error) {
	acc := atomRelT{attrs: nil, tuples: [][]OutValue{{}}}
	for _, r := range rels {
		var err error
		if acc, err = joinRels(acc, r, m); err != nil {
			return nil, err
		}
	}
	cols := make([]int, len(head))
	for i, x := range head {
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
			return &Result{Head: append([]string(nil), head...)}, nil
		}
	}
	out := &Result{Head: append([]string(nil), head...)}
	seen := map[string]struct{}{}
	var keys []string // keys[i] is the key of out.Rows[i]
	var buf []byte
	for n, t := range acc.tuples {
		if n%pg.CheckInterval == 0 {
			if err := m.Check(); err != nil {
				return nil, err
			}
		}
		buf = appendRowKey(buf[:0], t, cols)
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		key := string(buf)
		seen[key] = struct{}{}
		if err := m.AddRows(1); err != nil {
			return nil, err
		}
		row := make([]OutValue, len(cols))
		for i, c := range cols {
			row[i] = t[c]
		}
		out.Rows = append(out.Rows, row)
		keys = append(keys, key)
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

// joinRels natural-joins two variable relations on shared attributes,
// polling m every pg.CheckInterval output tuples.
func joinRels(a, b atomRelT, m *pg.Meter) (atomRelT, error) {
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
	aCols := make([]int, len(shared))
	bCols := make([]int, len(shared))
	for i, p := range shared {
		aCols[i], bCols[i] = p[0], p[1]
	}
	// Each key is built once, into buf; a probe allocates nothing.
	var buf []byte
	buckets := map[string][]int{}
	for i, t := range b.tuples {
		buf = appendRowKey(buf[:0], t, bCols)
		k := string(buf)
		buckets[k] = append(buckets[k], i)
	}
	var outTuples [][]OutValue
	for _, t := range a.tuples {
		buf = appendRowKey(buf[:0], t, aCols)
		for _, bi := range buckets[string(buf)] {
			bt := b.tuples[bi]
			row := make([]OutValue, 0, len(outAttrs))
			row = append(row, t...)
			for _, c := range extra {
				row = append(row, bt[c])
			}
			if len(outTuples)%pg.CheckInterval == 0 {
				if err := m.Check(); err != nil {
					return atomRelT{}, err
				}
			}
			outTuples = append(outTuples, row)
		}
	}
	return atomRelT{attrs: outAttrs, tuples: outTuples}, nil
}

// sweptExpr returns the automaton expression of an atom inside the kernel
// fragment — a plain RPQ, or an ℓ-RPQ without list variables, under mode
// all: an atom that is reachability, whose distinct paths all yield the one
// tuple — and nil for any other atom, a tier atom.
func sweptExpr(a Atom) rpq.Expr {
	switch {
	case a.Mode != eval.All || a.DL != nil || len(a.vars()) > 0:
		return nil
	case a.L != nil:
		return lrpq.Erase(a.L)
	default:
		return a.RPQ
	}
}

// attrs returns the attributes of the atom's relation: its source variable,
// its target variable unless the same or a constant, its list variables.
func (a Atom) attrs() []string {
	var attrs []string
	if !a.Src.IsConst {
		attrs = append(attrs, a.Src.Var)
	}
	if !a.Dst.IsConst && (a.Src.IsConst || a.Dst.Var != a.Src.Var) {
		attrs = append(attrs, a.Dst.Var)
	}
	return append(attrs, a.vars()...)
}

// tuple returns the atom's tuple for the endpoints u, v and the lists mu
// binds to listVars, the atom's list variables, in the order of attrs.
func (a Atom) tuple(u, v int, listVars []string, mu gpath.Binding) []OutValue {
	row := make([]OutValue, 0, 2+len(listVars))
	if !a.Src.IsConst {
		row = append(row, OutValue{Node: u})
	}
	if !a.Dst.IsConst && (a.Src.IsConst || a.Dst.Var != a.Src.Var) {
		row = append(row, OutValue{Node: v})
	}
	for _, z := range listVars {
		row = append(row, OutValue{IsList: true, List: mu.Get(z)})
	}
	return row
}

// sweptRel computes the relation of an atom inside the kernel fragment, expr
// its automaton expression. Existence over a plain automaton is
// reachability: the kernel's all-sources driver sweeps every source
// candidate (one product, compiled for the atom) and hands back (source,
// target) pairs, sources in candidate order and each source's targets
// ascending. A target is a destination candidate if it is the constant, or,
// for a variable, always: removing a node removes its edges, so a sweep from
// a live source reaches live nodes only.
func sweptRel(g *graph.Graph, a Atom, expr rpq.Expr, opts Options) (atomRelT, error) {
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
	sameVar := !a.Src.IsConst && !a.Dst.IsConst && a.Src.Var == a.Dst.Var
	kern := eval.CompileProduct(g, expr).Kernel()
	var tuples [][]OutValue
	err = kern.SweepFrom(srcCandidates, pg.Workers(opts.Parallelism), opts.Meter, false,
		func(part pg.Runs) error {
			before := len(tuples)
			for i, src := range part.Src {
				for _, tgt := range part.Targets(i) {
					if sameVar && src != tgt || dstConst >= 0 && int(tgt) != dstConst {
						continue
					}
					tuples = append(tuples, a.tuple(int(src), int(tgt), nil, nil))
				}
			}
			return opts.Meter.AddRows(int64(len(tuples) - before))
		})
	if err != nil {
		return atomRelT{}, err
	}
	return atomRelT{attrs: a.attrs(), tuples: tuples}, nil
}

// between evaluates an atom between two fixed endpoints under a path mode,
// on its tier's plan (lrpq.Plan, dlrpq.Plan): m(σ_{u,v}(⟦R⟧_G)).
type between func(u, v int, mode eval.Mode, opts Options) ([]gpath.PathBinding, error)

// tierPlan compiles a tier atom's expression once against g: a dl-RPQ to its
// dlrpq.Plan, a plain RPQ or an ℓ-RPQ to its lrpq.Plan on the product
// kernel of the erased expression, which kernel hands out.
func tierPlan(g *graph.Graph, a Atom, kernel func(rpq.Expr) *pg.Kernel) between {
	if a.DL != nil {
		p := dlrpq.NewPlan(g, a.DL)
		return func(u, v int, mode eval.Mode, opts Options) ([]gpath.PathBinding, error) {
			return p.Between(u, v, mode, dlrpq.Options{MaxLen: opts.AtomMaxLen, Meter: opts.Meter})
		}
	}
	e := a.L
	if e == nil {
		e = lrpq.FromRPQ(a.RPQ)
	}
	p := lrpq.NewPlan(kernel(lrpq.Erase(e)), e)
	return func(u, v int, mode eval.Mode, opts Options) ([]gpath.PathBinding, error) {
		return p.Between(u, v, mode, lrpq.Options{MaxLen: opts.AtomMaxLen, Meter: opts.Meter})
	}
}

// tierRel computes the relation of a tier atom — list variables, a mode
// other than all, or a dl-RPQ — on its plan: per source candidate, in
// order, the plan between it and every destination candidate, each distinct
// binding a tuple, so a relation's tuples come in (source, target) order.
// The served Plan materializes its tier atoms through this loop too.
func tierRel(g *graph.Graph, a Atom, plan between, opts Options) (atomRelT, error) {
	srcCandidates, err := termCandidates(g, a.Src)
	if err != nil {
		return atomRelT{}, err
	}
	dstCandidates, err := termCandidates(g, a.Dst)
	if err != nil {
		return atomRelT{}, err
	}
	sameVar := !a.Src.IsConst && !a.Dst.IsConst && a.Src.Var == a.Dst.Var
	listVars := a.vars()
	// Without list variables under mode all only existence matters
	// (distinct paths yield the same tuple): a dl-RPQ atom, whose mode-all
	// result sets may be infinite, is decided by a shortest witness.
	existenceOnly := len(listVars) == 0 && a.Mode == eval.All
	mode := a.Mode
	if existenceOnly {
		mode = eval.Shortest
	}
	perSource := func(u int) ([][]OutValue, error) {
		var rows [][]OutValue
		for _, v := range dstCandidates {
			if sameVar && u != v {
				continue
			}
			pbs, err := plan(u, v, mode, opts)
			if err != nil {
				return nil, err
			}
			if existenceOnly {
				if len(pbs) > 0 {
					rows = append(rows, a.tuple(u, v, nil, nil))
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
				rows = append(rows, a.tuple(u, v, listVars, pb.Binding))
			}
		}
		return rows, nil
	}

	tuples, err := overSources(srcCandidates, opts.Parallelism, opts.Meter, perSource)
	if err != nil {
		return atomRelT{}, err
	}
	if opts.GlobalModes && !existenceOnly && a.Mode == eval.Shortest {
		tuples = globalShortestFilter(g, a, plan, tuples, opts)
	}
	return atomRelT{attrs: a.attrs(), tuples: tuples}, nil
}

// overSources runs fn once per source node through the runtime's parallel
// fan-out (pg.ForEachEmit): per-source results are appended in source
// order, so the relation is identical to the sequential loop's. The meter
// m, when non-nil, is polled between sources, and a first error stops
// every worker from claiming further sources.
func overSources(sources []int, parallelism int, m *pg.Meter, fn func(u int) ([][]OutValue, error)) ([][]OutValue, error) {
	var out [][]OutValue
	err := pg.ForEachEmit(len(sources), pg.Workers(parallelism), nil, nil,
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

// globalShortestFilter implements the GlobalModes ablation for shortest: it
// re-evaluates the atom keeping only tuples whose witnessing path length
// equals the global minimum across all endpoint pairs. Because tuples do
// not record path lengths, the filter recomputes per-pair minima.
func globalShortestFilter(g *graph.Graph, a Atom, plan between, tuples [][]OutValue, opts Options) [][]OutValue {
	// Find the per-pair shortest lengths and the global minimum.
	type pair struct{ u, v int }
	minLen := map[pair]int{}
	global := -1
	srcs, _ := termCandidates(g, a.Src)
	dsts, _ := termCandidates(g, a.Dst)
	for _, u := range srcs {
		for _, v := range dsts {
			pbs, err := plan(u, v, a.Mode, opts)
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
	for i, at := range a.attrs() {
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
