package crpq

import (
	"context"
	"fmt"
	"slices"

	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
	"graphquery/internal/wcoj"
)

// Plan is a CRPQ compiled against one graph: the served evaluator. Eval and
// EvalCtx stay what they are — the string-keyed, pairwise-joined reference
// that tests and the benchmark's oracle compare against — and a Plan
// computes the same Result, row for row and in the same order, on
// kernel-native data: each atom's relation is the integer pairs its kernel
// sweep hands out, the conjuncts join attribute at a time (package wcoj),
// and rows stay integers until the final Result is built.
//
// That covers the kernel fragment: every atom a plain RPQ, or an ℓ-RPQ
// without list variables, under mode all — where an atom is reachability
// and its relation a set of node pairs. A query outside it (list variables,
// other path modes, dl-RPQ atoms) compiles to a Plan that runs the
// reference; the query's shape decides, nothing else does.
//
// A Plan is immutable and serves concurrent evaluations; it binds its graph
// (constants resolved, kernels built over it), so it is valid for that
// graph revision only.
type Plan struct {
	g *graph.Graph
	q *Query

	// The kernel fragment's compilation; atoms is nil outside it.
	atoms  []planAtom
	sweeps []planSweep
	nvars  int
	head   []int // the variable number of each head column
	// dedup is set when the head leaves a variable out: two assignments can
	// then project to one row.
	dedup bool
}

// planAtom is one conjunct with its ends resolved: a variable number, or
// -1 and the constant's node.
type planAtom struct {
	sweep int // the planSweep whose pairs it reads
	x, y  int
	dst   int // the target to keep when y is -1
}

// binary reports whether the atom joins two distinct variables, so that
// every pair of its sweep is a tuple of it.
func (a *planAtom) binary() bool { return a.x >= 0 && a.y >= 0 && a.x != a.y }

// planSweep is one sweep an evaluation runs: a kernel swept from every node
// or from one constant. Atoms over the same expression and the same kind of
// source read the one sweep.
type planSweep struct {
	kern  *pg.Kernel
	src   []int // the one source, nil for every node
	atoms []int // the atoms reading it, in written order
	rel   bool  // one of them is binary
}

// Compile validates q and compiles it against g: variables numbered in
// order of first appearance, constants resolved to nodes, head columns to
// variable numbers, one product kernel per distinct atom expression —
// instrumented with c (may be nil) so its sweeps show in the runtime
// counters — and one sweep per distinct (kernel, source). An unknown
// constant is reported here, in the words the reference uses for it.
func Compile(g *graph.Graph, q *Query, c *pg.Counters) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{g: g, q: q}
	if !onKernel(q) {
		return p, nil
	}
	vars := map[string]int{}
	number := func(t Term) int {
		v, ok := vars[t.Var]
		if !ok {
			v = len(vars)
			vars[t.Var] = v
		}
		return v
	}
	kernels := map[string]*pg.Kernel{}
	type sweepKey struct {
		kern *pg.Kernel
		src  int // -1 for every node
	}
	sweeps := map[sweepKey]int{}
	p.atoms = make([]planAtom, len(q.Atoms))
	for i, a := range q.Atoms {
		pa := planAtom{x: -1, y: -1}
		key := sweepKey{src: -1}
		if !a.Src.IsConst {
			pa.x = number(a.Src)
		} else if n, err := constNode(g, a.Src); err != nil {
			return nil, fmt.Errorf("atom %d (%s): %w", i, a, err)
		} else {
			key.src = n
		}
		if !a.Dst.IsConst {
			pa.y = number(a.Dst)
		} else if n, err := constNode(g, a.Dst); err != nil {
			return nil, fmt.Errorf("atom %d (%s): %w", i, a, err)
		} else {
			pa.dst = n
		}
		expr := a.RPQ
		if expr == nil {
			expr = lrpq.Erase(a.L)
		}
		text := expr.String()
		if key.kern = kernels[text]; key.kern == nil {
			key.kern = eval.NewProductInstrumented(g, rpq.Compile(expr), c).Kernel()
			kernels[text] = key.kern
		}
		var ok bool
		if pa.sweep, ok = sweeps[key]; !ok {
			pa.sweep = len(p.sweeps)
			sweeps[key] = pa.sweep
			sw := planSweep{kern: key.kern}
			if key.src >= 0 {
				sw.src = []int{key.src}
			}
			p.sweeps = append(p.sweeps, sw)
		}
		sw := &p.sweeps[pa.sweep]
		sw.atoms = append(sw.atoms, i)
		sw.rel = sw.rel || pa.binary()
		p.atoms[i] = pa
	}
	p.nvars = len(vars)
	p.head = make([]int, len(q.Head))
	inHead := make([]bool, p.nvars)
	for i, x := range q.Head {
		p.head[i] = vars[x]
		inHead[vars[x]] = true
	}
	p.dedup = slices.Contains(inHead, false)
	return p, nil
}

// onKernel reports whether q lies in the kernel fragment. (A head list
// variable needs an atom that binds it, so a node-only head is implied.)
func onKernel(q *Query) bool {
	for _, a := range q.Atoms {
		if a.DL != nil || a.Mode != eval.All || len(a.vars()) > 0 {
			return false
		}
	}
	return true
}

// OnKernel reports whether the plan's query lies in the kernel fragment,
// i.e. whether Eval runs Sweep and Join rather than the reference.
func (p *Plan) OnKernel() bool { return p.atoms != nil }

// Eval computes q(G) for the plan's query and graph: Sweep then Join inside
// the kernel fragment, EvalCtx outside it. The meter is opts.Meter when
// set, otherwise minted from ctx and opts.Budget, as for EvalCtx; errors
// are EvalCtx's.
func (p *Plan) Eval(ctx context.Context, opts Options) (*Result, error) {
	if opts.Meter == nil {
		opts.Meter = eval.NewMeter(ctx, opts.Budget)
	}
	if !p.OnKernel() {
		return EvalCtx(ctx, p.g, p.q, opts)
	}
	s, err := p.Sweep(opts)
	if err != nil {
		return nil, err
	}
	return s.Join()
}

// Swept holds the atom relations of one evaluation, between its two
// stages.
type Swept struct {
	p     *Plan
	m     *eval.Meter
	join  wcoj.Query
	empty bool // some atom matched nothing, so the query does not either
}

// Sweep is the first stage of an evaluation inside the kernel fragment:
// every distinct (kernel, source) swept once under opts.Meter — from its
// constant, or from every node — when the first atom that reads it comes up
// in written order, its runs (pg.Runs) kept as integers in the order the
// sweep delivers them, which is already (source, target) ascending: one
// binary relation shared by every atom over two distinct variables, and per
// other atom a sorted node set — what a constant target or a repeated
// variable leaves of the pairs, or the targets of a constant source.
//
// The meter is charged per atom, not per sweep: the atom that runs a sweep
// is charged by it, states as they are visited and its tuples as they are
// delivered, and every later atom reading the same sweep is charged the
// same states and its own tuples in one step — what the reference, which
// sweeps per atom, charges — so a budget trips on the same atom with the
// same text and a reply's states and rows do not depend on what was shared.
// The kernel's runtime counters count the sweeps that ran (DESIGN §21).
// Nothing proportional to the graph is allocated or walked for an atom
// whose source is a constant.
func (p *Plan) Sweep(opts Options) (*Swept, error) {
	m := opts.Meter
	s := &Swept{p: p, m: m, join: wcoj.Query{NumVars: p.nvars}}
	outs := make([]atomOut, len(p.atoms))
	ran := make([]*sweepOut, len(p.sweeps))
	for i := range p.atoms {
		a, out := &p.atoms[i], &outs[i]
		var err error
		if sw := ran[a.sweep]; sw == nil {
			ran[a.sweep], err = p.run(a.sweep, i, outs, m, eval.Parallelism(opts.Parallelism))
		} else if err = m.Tick(sw.states); err == nil {
			err = m.AddRows(int64(out.kept))
		}
		if err != nil {
			return nil, fmt.Errorf("atom %d (%s): %w", i, p.q.Atoms[i], err)
		}
		switch {
		case a.binary():
			s.join.Atoms = append(s.join.Atoms, wcoj.Atom{Rel: ran[a.sweep].rel, X: a.x, Y: a.y})
		case a.x >= 0 || a.y >= 0:
			s.join.Sets = append(s.join.Sets, wcoj.Set{Vals: out.vals, X: max(a.x, a.y)})
		}
		s.empty = s.empty || out.kept == 0
	}
	return s, nil
}

// atomOut is what one atom keeps of its sweep: the number of tuples, and
// for an atom that is not binary the variable end of each.
type atomOut struct {
	kept int
	vals []int32
}

// sweepOut is one sweep that has run: what it ticked on the meter, and the
// relation of all its pairs if a binary atom reads it.
type sweepOut struct {
	states int64
	rel    *wcoj.Rel
}

// run runs sweep k on behalf of atom first, the one charged for it as it
// goes, and fills the outs of every atom that reads it.
func (p *Plan) run(k, first int, outs []atomOut, m *eval.Meter, workers int) (*sweepOut, error) {
	sw := &p.sweeps[k]
	res := &sweepOut{}
	if sw.rel {
		res.rel = wcoj.NewRel(p.g.NumNodes())
	}
	emit := func(part pg.Runs) error {
		before := outs[first].kept
		if res.rel != nil {
			res.rel.Append(part)
		}
		for _, j := range sw.atoms {
			a, out := &p.atoms[j], &outs[j]
			switch {
			case a.binary():
				out.kept += part.Len()
			case a.y >= 0 && a.x < 0: // every target of the constant source
				out.kept += part.Len()
				out.vals = append(out.vals, part.Tgt...)
			default: // the sources that reach the constant target, or themselves
				for i, u := range part.Src {
					want := u
					if a.y < 0 {
						want = int32(a.dst)
					}
					if _, ok := slices.BinarySearch(part.Targets(i), want); ok {
						out.kept++
						if a.x >= 0 {
							out.vals = append(out.vals, u)
						}
					}
				}
			}
		}
		return m.AddRows(int64(outs[first].kept - before))
	}
	s0 := m.States()
	var err error
	if sw.src == nil {
		err = sw.kern.SweepAll(workers, m, pg.Plan{}, false, emit)
	} else {
		err = sw.kern.SweepFrom(sw.src, workers, m, pg.Plan{}, false, emit)
	}
	res.states = m.States() - s0
	if err == nil && res.rel != nil {
		res.rel.Seal()
	}
	return res, err
}

// Join is the second stage: the relations joined attribute at a time on the
// calling goroutine, every full assignment projected to the head as
// integers — kept distinct where the head drops a variable — and charged
// on the meter as one row, then the rows put in the reference's order and
// turned into the Result. The join polls the meter as it goes, so a
// cancellation or deadline lands within one check interval.
func (s *Swept) Join() (*Result, error) {
	p := s.p
	out := &Result{Head: append([]string(nil), p.q.Head...)}
	if s.empty {
		return out, nil
	}
	rows := rowSet{width: len(p.head), distinct: p.dedup}
	row := make([]int32, len(p.head))
	err := s.join.Enumerate(s.m, func(binding []int32) error {
		for i, v := range p.head {
			row[i] = binding[v]
		}
		if !rows.add(row) {
			return nil
		}
		return s.m.AddRows(1)
	})
	if err != nil {
		return nil, err
	}
	if rows.n == 0 {
		return out, nil
	}
	n, w := rows.n, rows.width
	keys := make([]uint64, len(rows.cells))
	for i, c := range rows.cells {
		keys[i] = orderKey(c)
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		return slices.Compare(keys[int(a)*w:int(a)*w+w], keys[int(b)*w:int(b)*w+w])
	})
	cells := make([]OutValue, n*w)
	out.Rows = make([][]OutValue, n)
	for i, r := range perm {
		out.Rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
		for j, c := range rows.row(int(r)) {
			out.Rows[i][j].Node = int(c)
		}
	}
	return out, nil
}

// rowSet collects head rows as flat integers, width cells to a row. With
// distinct set it keeps them distinct through an open-addressing table of
// row numbers, so no row is ever rendered to be compared.
type rowSet struct {
	width    int
	distinct bool
	cells    []int32
	n        int
	table    []int32 // row number + 1, 0 for an empty slot; a power of two long
}

func (s *rowSet) row(i int) []int32 { return s.cells[i*s.width : (i+1)*s.width] }

// add appends row unless distinct is set and the row is already there; it
// reports whether it appended.
func (s *rowSet) add(row []int32) bool {
	if s.distinct {
		if 2*s.n >= len(s.table) {
			old := s.table
			s.table = make([]int32, max(16, 2*len(old)))
			for _, r := range old {
				if r != 0 {
					s.table[s.slot(s.row(int(r-1)))] = r
				}
			}
		}
		i := s.slot(row)
		if s.table[i] != 0 {
			return false
		}
		s.table[i] = int32(s.n + 1)
	}
	s.cells = append(s.cells, row...)
	s.n++
	return true
}

// slot returns the table position that holds row, or the empty one where it
// belongs.
func (s *rowSet) slot(row []int32) int {
	h := uint64(14695981039346656037) // FNV-1a, a cell at a time
	for _, c := range row {
		h = (h ^ uint64(uint32(c))) * 1099511628211
	}
	mask := len(s.table) - 1
	for i := int(h>>32) & mask; ; i = (i + 1) & mask {
		if r := s.table[i]; r == 0 || slices.Equal(s.row(int(r-1)), row) {
			return i
		}
	}
}

// orderKey maps a node index to an integer that sorts the way the
// reference's key for the cell, the string "N<index>|", sorts: by decimal
// digits from the left, and — '|' sorting after every digit — a number
// after the numbers it is a proper prefix of, so 12 before 1. It reads the
// index as an 11-place number in base 11: its decimal digits, then a 10 for
// the terminator, then zeros.
func orderKey(v int32) uint64 {
	var digits [10]uint64
	n := 0
	for {
		digits[n] = uint64(v % 10)
		n++
		if v /= 10; v == 0 {
			break
		}
	}
	k := uint64(0)
	for i := n - 1; i >= 0; i-- {
		k = k*11 + digits[i]
	}
	k = k*11 + 10
	for i := n + 1; i < 11; i++ {
		k *= 11
	}
	return k
}
