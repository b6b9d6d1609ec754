// Package relalg implements first-normal-form relations over mixed
// node/edge/value attributes, with the relational-algebra operators that
// CoreGQL applies to pattern outputs (Section 4.1.3): selection, projection,
// natural join, union, difference, and renaming, all under set semantics.
//
// Cells are atomic: a graph node, a graph edge, or a property value — never
// a list or a null (the first-normal-form requirement CoreGQL builds its
// free-variable discipline around, Section 4.1).
package relalg

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"graphquery/internal/graph"
)

// CellKind discriminates relation cell contents.
type CellKind uint8

// The cell kinds.
const (
	CellNode CellKind = iota
	CellEdge
	CellValue
)

// Cell is one atomic entry of a tuple.
type Cell struct {
	Kind  CellKind
	Index int         // node or edge index, for CellNode/CellEdge
	Value graph.Value // for CellValue
}

// NodeCell returns a cell holding node index i.
func NodeCell(i int) Cell { return Cell{Kind: CellNode, Index: i} }

// EdgeCell returns a cell holding edge index i.
func EdgeCell(i int) Cell { return Cell{Kind: CellEdge, Index: i} }

// ValueCell returns a cell holding a property value.
func ValueCell(v graph.Value) Cell { return Cell{Kind: CellValue, Value: v} }

// Equal reports cell equality.
func (c Cell) Equal(d Cell) bool {
	if c.Kind != d.Kind {
		return false
	}
	if c.Kind == CellValue {
		return c.Value.Equal(d.Value)
	}
	return c.Index == d.Index
}

// appendKey appends the cell's canonical deduplication key to b: "N" or "E"
// and the index, or "V", the value's kind number, ":" and the value.
func (c Cell) appendKey(b []byte) []byte {
	switch c.Kind {
	case CellNode:
		return strconv.AppendInt(append(b, 'N'), int64(c.Index), 10)
	case CellEdge:
		return strconv.AppendInt(append(b, 'E'), int64(c.Index), 10)
	default:
		b = strconv.AppendUint(append(b, 'V'), uint64(c.Value.Kind()), 10)
		return c.Value.Append(append(b, ':'))
	}
}

// Format renders the cell with external IDs from g (nil g falls back to
// indices).
func (c Cell) Format(g *graph.Graph) string {
	switch c.Kind {
	case CellNode:
		if g != nil {
			return string(g.Node(c.Index).ID)
		}
		return fmt.Sprintf("node#%d", c.Index)
	case CellEdge:
		if g != nil {
			return string(g.Edge(c.Index).ID)
		}
		return fmt.Sprintf("edge#%d", c.Index)
	default:
		return c.Value.String()
	}
}

// Relation is a set of tuples over a fixed attribute list. Tuples are
// deduplicated on insertion (set semantics).
type Relation struct {
	attrs  []string
	index  map[string]int // attribute -> column
	tuples [][]Cell
	seen   map[string]struct{}
}

// NewRelation creates an empty relation with the given attributes.
// Attribute names must be distinct.
func NewRelation(attrs ...string) (*Relation, error) {
	r := &Relation{
		attrs: append([]string(nil), attrs...),
		index: make(map[string]int, len(attrs)),
		seen:  make(map[string]struct{}),
	}
	for i, a := range attrs {
		if _, dup := r.index[a]; dup {
			return nil, fmt.Errorf("relalg: duplicate attribute %q", a)
		}
		r.index[a] = i
	}
	return r, nil
}

// MustNewRelation is NewRelation that panics on error.
func MustNewRelation(attrs ...string) *Relation {
	r, err := NewRelation(attrs...)
	if err != nil {
		panic(err)
	}
	return r
}

// Attrs returns the attribute list.
func (r *Relation) Attrs() []string { return r.attrs }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.attrs) }

// Len returns the number of (distinct) tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Col resolves an attribute to its column index.
func (r *Relation) Col(attr string) (int, bool) {
	i, ok := r.index[attr]
	return i, ok
}

// tupleKey renders the key of t: each cell's, followed by a '|'.
func tupleKey(t []Cell) string {
	var b []byte
	for _, c := range t {
		b = append(c.appendKey(b), '|')
	}
	return string(b)
}

// Add inserts a tuple (deduplicated). The arity must match.
func (r *Relation) Add(t ...Cell) error {
	if len(t) != len(r.attrs) {
		return fmt.Errorf("relalg: tuple arity %d does not match relation arity %d", len(t), len(r.attrs))
	}
	k := tupleKey(t)
	if _, dup := r.seen[k]; dup {
		return nil
	}
	r.seen[k] = struct{}{}
	r.tuples = append(r.tuples, append([]Cell(nil), t...))
	return nil
}

// MustAdd is Add that panics on error.
func (r *Relation) MustAdd(t ...Cell) {
	if err := r.Add(t...); err != nil {
		panic(err)
	}
}

// Contains reports whether the tuple is present.
func (r *Relation) Contains(t ...Cell) bool {
	_, ok := r.seen[tupleKey(t)]
	return ok
}

// Select returns σ_pred(r).
func (r *Relation) Select(pred func(t []Cell) bool) *Relation {
	out := MustNewRelation(r.attrs...)
	for _, t := range r.tuples {
		if pred(t) {
			out.MustAdd(t...)
		}
	}
	return out
}

// Project returns π_attrs(r); duplicates collapse (set semantics).
func (r *Relation) Project(attrs ...string) (*Relation, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		c, ok := r.index[a]
		if !ok {
			return nil, fmt.Errorf("relalg: projection on unknown attribute %q", a)
		}
		cols[i] = c
	}
	out, err := NewRelation(attrs...)
	if err != nil {
		return nil, err
	}
	for _, t := range r.tuples {
		proj := make([]Cell, len(cols))
		for i, c := range cols {
			proj[i] = t[c]
		}
		out.MustAdd(proj...)
	}
	return out, nil
}

// Rename returns ρ(r) with attribute from renamed to to.
func (r *Relation) Rename(from, to string) (*Relation, error) {
	if _, ok := r.index[from]; !ok {
		return nil, fmt.Errorf("relalg: rename of unknown attribute %q", from)
	}
	attrs := make([]string, len(r.attrs))
	for i, a := range r.attrs {
		if a == from {
			attrs[i] = to
		} else {
			attrs[i] = a
		}
	}
	out, err := NewRelation(attrs...)
	if err != nil {
		return nil, err
	}
	for _, t := range r.tuples {
		out.MustAdd(t...)
	}
	return out, nil
}

// Union returns r ∪ s; attribute lists must be identical.
func (r *Relation) Union(s *Relation) (*Relation, error) {
	if err := sameSchema(r, s); err != nil {
		return nil, err
	}
	out := MustNewRelation(r.attrs...)
	for _, t := range r.tuples {
		out.MustAdd(t...)
	}
	for _, t := range s.tuples {
		out.MustAdd(t...)
	}
	return out, nil
}

// Diff returns r − s; attribute lists must be identical.
func (r *Relation) Diff(s *Relation) (*Relation, error) {
	if err := sameSchema(r, s); err != nil {
		return nil, err
	}
	out := MustNewRelation(r.attrs...)
	for _, t := range r.tuples {
		if !s.Contains(t...) {
			out.MustAdd(t...)
		}
	}
	return out, nil
}

func sameSchema(r, s *Relation) error {
	if len(r.attrs) != len(s.attrs) {
		return fmt.Errorf("relalg: schema mismatch: %v vs %v", r.attrs, s.attrs)
	}
	for i := range r.attrs {
		if r.attrs[i] != s.attrs[i] {
			return fmt.Errorf("relalg: schema mismatch: %v vs %v", r.attrs, s.attrs)
		}
	}
	return nil
}

// Join returns the natural join r ⋈ s: tuples agreeing on all shared
// attributes, with the output schema r.attrs ++ (s.attrs − shared).
func (r *Relation) Join(s *Relation) (*Relation, error) {
	var shared [][2]int // (column in r, column in s)
	var extraCols []int
	var outAttrs []string
	outAttrs = append(outAttrs, r.attrs...)
	for j, a := range s.attrs {
		if i, ok := r.index[a]; ok {
			shared = append(shared, [2]int{i, j})
		} else {
			extraCols = append(extraCols, j)
			outAttrs = append(outAttrs, a)
		}
	}
	out, err := NewRelation(outAttrs...)
	if err != nil {
		return nil, err
	}
	// Hash join on the shared columns.
	var buf []byte
	mk := func(t []Cell, side int) {
		buf = buf[:0]
		for _, p := range shared {
			buf = append(t[p[side]].appendKey(buf), '|')
		}
	}
	buckets := make(map[string][]int)
	for i, t := range s.tuples {
		mk(t, 1)
		k := string(buf)
		buckets[k] = append(buckets[k], i)
	}
	for _, t := range r.tuples {
		mk(t, 0)
		for _, si := range buckets[string(buf)] {
			st := s.tuples[si]
			outT := make([]Cell, 0, len(outAttrs))
			outT = append(outT, t...)
			for _, c := range extraCols {
				outT = append(outT, st[c])
			}
			out.MustAdd(outT...)
		}
	}
	return out, nil
}

// Product returns the Cartesian product when no attributes are shared
// (a special case of Join, provided for clarity).
func (r *Relation) Product(s *Relation) (*Relation, error) {
	for _, a := range s.attrs {
		if _, clash := r.index[a]; clash {
			return nil, fmt.Errorf("relalg: product with shared attribute %q (use Join)", a)
		}
	}
	return r.Join(s)
}

// Sorted returns the tuples in a canonical order (by key), for deterministic
// output in tests and CLI rendering.
func (r *Relation) Sorted() [][]Cell {
	out := append([][]Cell(nil), r.tuples...)
	sort.Slice(out, func(i, j int) bool { return tupleKey(out[i]) < tupleKey(out[j]) })
	return out
}

// Format renders the relation as an aligned text table using external IDs
// from g (g may be nil).
func (r *Relation) Format(g *graph.Graph) string {
	var b strings.Builder
	widths := make([]int, len(r.attrs))
	rows := make([][]string, 0, len(r.tuples)+1)
	header := make([]string, len(r.attrs))
	for i, a := range r.attrs {
		header[i] = a
		widths[i] = len(a)
	}
	rows = append(rows, header)
	for _, t := range r.Sorted() {
		row := make([]string, len(t))
		for i, c := range t {
			row[i] = c.Format(g)
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		rows = append(rows, row)
	}
	for ri, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for _, w := range widths {
				b.WriteString(strings.Repeat("-", w) + "  ")
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
