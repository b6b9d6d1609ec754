package crpq

import (
	"fmt"
	"slices"
	"strings"

	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
	"graphquery/internal/wcoj"
)

// Plan is a CRPQ compiled against one graph: the served evaluator. Eval
// stays what it is — the string-keyed, pairwise-joined reference
// that tests and the benchmark's oracle compare against — and a Plan
// computes the same Result, row for row and in the same order, on integer
// relations: every atom becomes a relation of node pairs or a node set, the
// conjuncts join attribute at a time (package wcoj), and rows stay integers
// until the final Result is built.
//
// An atom inside the kernel fragment — a plain RPQ, or an ℓ-RPQ without
// list variables, under mode all — is reachability: its relation is the
// pairs its kernel sweep hands out, and atoms over one expression share the
// sweep. Every other atom (list variables, modes shortest, simple and
// trail, dl-RPQs) is a tier atom: its lrpq.Plan or dlrpq.Plan is built once,
// here, and an evaluation materializes it by the reference's own loop
// (tierRel), between every pair of endpoints, so that its states, rows and
// budget trips are the reference's. The join binds node variables only —
// list variables never join, by condition (4) — and each full assignment
// then takes the cross product of the list values that the tier atoms bound
// at their endpoints.
//
// A Plan is immutable and serves concurrent evaluations; it binds its graph
// (constants resolved, atoms on kernels over it), so it is valid for that
// graph revision only.
type Plan struct {
	g *graph.Graph
	q *Query

	atoms  []planAtom
	sweeps []planSweep
	nvars  int   // node variables, numbered from 0
	nlists int   // head list variables, numbered from nvars
	head   []int // the variable number of each head column
	// dedup is set when the head leaves a node variable out: two assignments
	// can then project to one row.
	dedup bool
}

// planAtom is one conjunct with its ends resolved: a variable number, or
// -1 and the constant's node.
type planAtom struct {
	sweep int     // the planSweep whose pairs it reads; -1 for a tier atom
	tier  between // a tier atom's plan
	x, y  int
	dst   int // the target to keep when y is -1
	// lists are a tier atom's list variables in the head: each one's column
	// in the atom's relation and its variable number.
	lists []listCol
}

type listCol struct{ col, v int }

// binary reports whether the atom joins two distinct variables, so that
// every pair of its relation is a tuple of it.
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
// order of first appearance, then the head's list variables, constants
// resolved to nodes, head columns to variable numbers, each distinct
// expression on its product kernel with g, which kernel is asked for once per
// expression (a serving layer hands out its cached one, whose counters
// receive the work), one sweep per distinct (kernel, source) of the atoms
// inside the kernel fragment, and a plan per tier atom — an lrpq.Plan on the
// kernel of its erased expression, or a dlrpq.Plan. An unknown constant is
// reported here, in the words the reference uses for it.
func Compile(g *graph.Graph, q *Query, kernel func(rpq.Expr) *pg.Kernel) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{g: g, q: q}
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
	kernelOf := func(e rpq.Expr) *pg.Kernel {
		text := e.String()
		k := kernels[text]
		if k == nil {
			k = kernel(e)
			kernels[text] = k
		}
		return k
	}
	type sweepKey struct {
		kern *pg.Kernel
		src  int // -1 for every node
	}
	sweeps := map[sweepKey]int{}
	p.atoms = make([]planAtom, len(q.Atoms))
	for i, a := range q.Atoms {
		pa := planAtom{sweep: -1, x: -1, y: -1}
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
		expr := sweptExpr(a)
		if expr == nil {
			pa.tier = tierPlan(g, a, kernelOf)
			p.atoms[i] = pa
			continue
		}
		key.kern = kernelOf(expr)
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
	lists := map[string]int{}
	p.head = make([]int, len(q.Head))
	inHead := make([]bool, p.nvars)
	for i, x := range q.Head {
		v, isNode := vars[x]
		if isNode {
			inHead[v] = true
		} else if v, isNode = lists[x]; !isNode {
			v = p.nvars + len(lists)
			lists[x] = v
		}
		p.head[i] = v
	}
	p.nlists = len(lists)
	p.dedup = slices.Contains(inHead, false)
	for i, a := range q.Atoms {
		attrs := a.attrs()
		for col := len(attrs) - len(a.vars()); col < len(attrs); col++ {
			if v, ok := lists[attrs[col]]; ok {
				p.atoms[i].lists = append(p.atoms[i].lists, listCol{col, v})
			}
		}
	}
	return p, nil
}

// Eval computes q(G) for the plan's query and graph, Sweep then Join, under
// opts.Meter; errors are the package-level Eval's.
func (p *Plan) Eval(opts Options) (*Result, error) {
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
	m     *pg.Meter
	join  wcoj.Query
	empty bool // some atom matched nothing, so the query does not either

	// What the tier atoms bound to head list variables: per such atom, its
	// distinct values at each of its endpoint pairs, as IDs into lists.
	bound []bound
	lists []gpath.List
	keys  []string // keys[id]: the reference's key of lists[id] after its 'L'
	ids   map[string]int32
}

// Sweep is the first stage of an evaluation: every atom materialized in
// written order under opts.Meter. Inside the kernel fragment that is every
// distinct (kernel, source) swept once — from its constant, or from every
// node — when the first atom that reads it comes up, its runs (pg.Runs)
// kept as integers in the order the sweep delivers them, which is already
// (source, target) ascending: one binary relation shared by every atom over
// two distinct variables, and per other atom a sorted node set — what a
// constant target or a repeated variable leaves of the pairs, or the
// targets of a constant source. A tier atom is materialized on its plan by
// the reference's loop (tierRel) and its distinct endpoint pairs, which
// come in the same order, become the same kind of relation or set.
//
// The meter is charged per atom, not per sweep: the atom that runs a sweep
// is charged by it, states as they are visited and its tuples as they are
// delivered, and every later atom reading the same sweep is charged the
// same states and its own tuples in one step — what the reference, which
// sweeps per atom, charges — so a budget trips on the same atom with the
// same text and a reply's states and rows do not depend on what was shared.
// A tier atom charges what its loop charges, which is the reference's by
// construction. The kernel's runtime counters count the work that ran
// (DESIGN §21). Nothing proportional to the graph is allocated or walked for
// a swept atom whose source is a constant.
func (p *Plan) Sweep(opts Options) (*Swept, error) {
	m := opts.Meter
	s := &Swept{p: p, m: m, join: wcoj.Query{NumVars: p.nvars}}
	outs := make([]atomOut, len(p.atoms))
	ran := make([]*sweepOut, len(p.sweeps))
	for i := range p.atoms {
		a, out := &p.atoms[i], &outs[i]
		var err error
		switch {
		case a.tier != nil:
			err = s.tier(i, out, opts)
		case ran[a.sweep] == nil:
			ran[a.sweep], err = p.run(a.sweep, i, outs, m, pg.Workers(opts.Parallelism))
		default:
			if err = m.Tick(ran[a.sweep].states); err == nil {
				err = m.AddRows(int64(out.kept))
			}
		}
		if err != nil {
			return nil, fmt.Errorf("atom %d (%s): %w", i, p.q.Atoms[i], err)
		}
		switch {
		case a.binary():
			rel := out.rel
			if rel == nil {
				rel = ran[a.sweep].rel
			}
			s.join.Atoms = append(s.join.Atoms, wcoj.Atom{Rel: rel, X: a.x, Y: a.y})
		case a.x >= 0 || a.y >= 0:
			s.join.Sets = append(s.join.Sets, wcoj.Set{Vals: out.vals, X: max(a.x, a.y)})
		}
		s.empty = s.empty || out.kept == 0
	}
	return s, nil
}

// bound is what one tier atom bound to head list variables: rows of its
// two endpoint nodes (0 for a constant end) and the IDs of its head list
// values, distinct, and the rows of each endpoint pair.
type bound struct {
	atom int
	rows rowSet
	at   map[[2]int32][2]int32 // endpoint pair → its rows [lo, hi)
}

// tier materializes tier atom i on its plan through the reference's loop
// and keeps what the join reads of its tuples: their number, their distinct
// endpoint pairs — a relation if the atom is binary, else the node set of
// its variable end — and, if it binds head list variables, their values at
// each pair. Distinct pairs are adjacent runs of tuples: tierRel delivers
// them per source in order, each target's bindings together.
func (s *Swept) tier(i int, out *atomOut, opts Options) error {
	p := s.p
	a := &p.atoms[i]
	rel, err := tierRel(p.g, p.q.Atoms[i], a.tier, opts)
	if err != nil {
		return err
	}
	out.kept = len(rel.tuples)
	var b *bound
	if len(a.lists) > 0 {
		s.bound = append(s.bound, bound{atom: i, rows: rowSet{width: 2 + len(a.lists), distinct: true},
			at: map[[2]int32][2]int32{}})
		b = &s.bound[len(s.bound)-1]
	}
	var runs pg.Runs
	row := make([]int32, 2+len(a.lists))
	prev := [2]int32{-1, -1}
	lo := int32(0) // the pair's first row in b
	for _, t := range rel.tuples {
		var k [2]int32 // the nodes at the atom's variable ends
		if a.x >= 0 {
			k[0] = int32(t[0].Node)
		}
		switch {
		case a.y == a.x:
			k[1] = k[0]
		case a.y >= 0 && a.x >= 0:
			k[1] = int32(t[1].Node)
		case a.y >= 0:
			k[1] = int32(t[0].Node)
		}
		if k != prev {
			switch {
			case a.binary():
				if len(runs.Src) == 0 || runs.Src[len(runs.Src)-1] != k[0] {
					runs.Src = append(runs.Src, k[0])
					runs.End = append(runs.End, 0)
				}
				runs.Tgt = append(runs.Tgt, k[1])
				runs.End[len(runs.End)-1] = int32(len(runs.Tgt))
			case a.x >= 0:
				out.vals = append(out.vals, k[0])
			case a.y >= 0:
				out.vals = append(out.vals, k[1])
			}
			prev = k
			if b != nil {
				lo = int32(b.rows.n)
			}
		}
		if b != nil {
			row[0], row[1] = k[0], k[1]
			for j, l := range a.lists {
				row[2+j] = s.intern(t[l.col].List)
			}
			if b.rows.add(row) {
				b.at[k] = [2]int32{lo, int32(b.rows.n)}
			}
		}
	}
	if a.binary() {
		out.rel = wcoj.NewRel(p.g.NumNodes())
		out.rel.Append(runs)
		out.rel.Seal()
	}
	return nil
}

// intern returns the ID of list l in this evaluation's table.
func (s *Swept) intern(l gpath.List) int32 {
	key := l.Key()
	id, ok := s.ids[key]
	if !ok {
		if s.ids == nil {
			s.ids = map[string]int32{}
		}
		id = int32(len(s.lists))
		s.ids[key] = id
		s.lists = append(s.lists, l)
		s.keys = append(s.keys, key+"|")
	}
	return id
}

// atomOut is what one atom keeps of its sweep or its tier plan: the number
// of tuples, for an atom that is not binary the variable end of each, and
// for a binary tier atom its own relation.
type atomOut struct {
	kept int
	vals []int32
	rel  *wcoj.Rel
}

// sweepOut is one sweep that has run: what it ticked on the meter, and the
// relation of all its pairs if a binary atom reads it.
type sweepOut struct {
	states int64
	rel    *wcoj.Rel
}

// run runs sweep k on behalf of atom first, the one charged for it as it
// goes, and fills the outs of every atom that reads it.
func (p *Plan) run(k, first int, outs []atomOut, m *pg.Meter, workers int) (*sweepOut, error) {
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
		err = sw.kern.SweepAll(workers, m, false, emit)
	} else {
		err = sw.kern.SweepFrom(sw.src, workers, m, false, emit)
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
// turned into the Result. A head with list variables takes, per assignment
// of the node variables, the cross product of the values the tier atoms
// bound at its endpoints. The join polls the meter as it goes, so a
// cancellation or deadline lands within one check interval.
func (s *Swept) Join() (*Result, error) {
	p := s.p
	out := &Result{Head: append([]string(nil), p.q.Head...)}
	if s.empty {
		return out, nil
	}
	rows := rowSet{width: len(p.head), distinct: p.dedup}
	row := make([]int32, len(p.head))
	emit := func(binding []int32) error {
		for i, v := range p.head {
			row[i] = binding[v]
		}
		if !rows.add(row) {
			return nil
		}
		return s.m.AddRows(1)
	}
	if len(s.bound) > 0 {
		full := make([]int32, p.nvars+p.nlists)
		project := emit
		emit = func(binding []int32) error {
			copy(full, binding)
			return s.cross(full, 0, project)
		}
	}
	if err := s.join.Enumerate(s.m, emit); err != nil {
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
	if len(s.lists) > 0 {
		rank := s.ranks()
		for j, v := range p.head {
			if v < p.nvars {
				continue
			}
			for r := j; r < len(keys); r += w {
				keys[r] = uint64(rank[rows.cells[r]])
			}
		}
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
			if p.head[j] < p.nvars {
				out.Rows[i][j].Node = int(c)
			} else {
				out.Rows[i][j] = OutValue{IsList: true, List: s.lists[c]}
			}
		}
	}
	return out, nil
}

// cross extends a full assignment, node variables bound, by the head list
// values of tier atoms i, i+1, … at their endpoints, one combination at a
// time, and hands each to emit.
func (s *Swept) cross(full []int32, i int, emit func([]int32) error) error {
	if i == len(s.bound) {
		return emit(full)
	}
	b := &s.bound[i]
	a := &s.p.atoms[b.atom]
	var k [2]int32
	if a.x >= 0 {
		k[0] = full[a.x]
	}
	if a.y >= 0 {
		k[1] = full[a.y]
	}
	span := b.at[k]
	for r := span[0]; r < span[1]; r++ {
		for j, l := range a.lists {
			full[l.v] = b.rows.row(int(r))[2+j]
		}
		if err := s.cross(full, i+1, emit); err != nil {
			return err
		}
	}
	return nil
}

// ranks returns each list ID's position in the reference's order of list
// cells: by the key "L<key>|", so a key after the keys it is a proper
// prefix of, '|' sorting after every byte a key holds.
func (s *Swept) ranks() []int32 {
	order := make([]int32, len(s.lists))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(s.keys[a], s.keys[b]) })
	rank := make([]int32, len(order))
	for r, id := range order {
		rank[id] = int32(r)
	}
	return rank
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
