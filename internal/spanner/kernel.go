package spanner

import (
	"context"
	"fmt"

	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// This file lowers spanner evaluation onto the product-graph kernel. A
// document is a line graph — one node per byte position 0..len(doc), one
// edge per byte labeled with that byte — and the capture-erased regex
// formula is an RPQ over it (captures only annotate positions, so erasing
// them preserves the underlying language exactly: Section 6.3's automata
// compatibility). The kernel answers the Boolean feasibility question
// ("does any run span the whole document?") with its metered frontier
// sweep; only when feasible does the capture-propagating recursion run,
// itself metered through the same Ticker discipline.

// EvaluateCtx is Evaluate under a context and budget. The kernel runs the
// erased-RPQ feasibility sweep first (charged to the states budget), so
// infeasible documents are rejected in O(|doc|·|A|) without touching the
// capture recursion; each emitted mapping is charged to the rows budget.
// Errors follow the standard taxonomy and return no partial results.
func EvaluateCtx(ctx context.Context, doc string, e Expr, b pg.Budget) ([]Match, error) {
	return EvaluateMeter(doc, e, pg.NewMeter(ctx, b, nil, nil))
}

// EvaluateMeter is Evaluate with an explicit meter (may be nil).
func EvaluateMeter(doc string, e Expr, m *pg.Meter) ([]Match, error) {
	feasible, err := kernelFeasible(doc, e, m)
	if err != nil {
		return nil, err
	}
	if !feasible {
		return nil, nil
	}
	tick := pg.NewTicker(m, nil)
	parts, err := evalMeter(doc, e, 0, &tick)
	if err != nil {
		return nil, err
	}
	seen := map[string]struct{}{}
	var out []Match
	for _, p := range parts {
		if p.end != len(doc) {
			continue
		}
		k := p.m.key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		if err := m.AddRows(1); err != nil {
			return nil, err
		}
		out = append(out, p.m)
	}
	sortMatches(out)
	if err := tick.Flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// kernelFeasible asks the product-graph kernel whether any run of the
// capture-erased formula spans the entire document: it compiles Erase(e)
// over the document line graph and sweeps from position 0, checking whether
// position len(doc) is reachable in an accepting state.
func kernelFeasible(doc string, e Expr, m *pg.Meter) (bool, error) {
	g := LineGraph(doc)
	nfa := rpq.Compile(Erase(doc, e))
	kern := pg.NewKernel(g, pg.FromNFA(g, nfa), nil)
	sc := kern.GetScratch()
	defer kern.PutScratch(sc)
	reached, err := kern.Sweep(0, sc, m, false)
	if err != nil {
		return false, err
	}
	for _, v := range reached {
		if v == len(doc) {
			return true, nil
		}
	}
	return false, nil
}

// LineGraph renders doc as a path graph: node pᵢ per position i ∈
// [0, len(doc)], edge bᵢ: pᵢ → pᵢ₊₁ labeled with the byte doc[i]. Node
// indexes equal positions (builder insertion order).
func LineGraph(doc string) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i <= len(doc); i++ {
		b.AddNode(graph.NodeID(fmt.Sprintf("p%d", i)), "", nil)
	}
	for i := 0; i < len(doc); i++ {
		b.AddEdge(graph.EdgeID(fmt.Sprintf("b%d", i)), string(doc[i]),
			graph.NodeID(fmt.Sprintf("p%d", i)), graph.NodeID(fmt.Sprintf("p%d", i+1)), nil)
	}
	return b.MustBuild()
}

// Erase lowers the regex formula to an RPQ over single-byte edge labels by
// dropping captures. Character classes expand to the disjunction of the
// distinct document bytes they accept — sound because the line graph of
// doc carries no other labels.
func Erase(doc string, e Expr) rpq.Expr {
	alphabet := distinctBytes(doc)
	var lower func(Expr) rpq.Expr
	lower = func(e Expr) rpq.Expr {
		switch n := e.(type) {
		case EpsilonE:
			return rpq.Eps()
		case Char:
			return rpq.L(string(n.C))
		case Any:
			return byteDisj(alphabet, func(byte) bool { return true })
		case ClassFn:
			return byteDisj(alphabet, n.Fn)
		case ConcatE:
			parts := make([]rpq.Expr, len(n.Parts))
			for i, p := range n.Parts {
				parts[i] = lower(p)
			}
			return rpq.Seq(parts...)
		case UnionE:
			alts := make([]rpq.Expr, len(n.Alts))
			for i, a := range n.Alts {
				alts[i] = lower(a)
			}
			return rpq.Alt(alts...)
		case StarE:
			return rpq.Kleene(lower(n.Sub))
		case PlusE:
			return rpq.PlusOf(lower(n.Sub))
		case Capture:
			return lower(n.Sub)
		default:
			panic(fmt.Sprintf("spanner: unknown expression %T", e))
		}
	}
	return lower(e)
}

// CheckPositions is rpq.CheckPositions(Erase(doc, e)) counted on e itself:
// what a served spanner asks before it compiles text it did not write. The
// erasure is not built to be measured — a '.' or a class erases to one label
// per document byte it accepts, so its size is the query's times up to 256.
func CheckPositions(doc string, e Expr) error {
	// Counts saturate at limit, and a sum stops there, so the walk is
	// bounded however long the text; below it the count is exact.
	const limit = 1 << 16
	alphabet := distinctBytes(doc)
	var count func(Expr) int
	sum := func(es []Expr) (n int) {
		for _, e := range es {
			if n += count(e); n >= limit {
				break
			}
		}
		return n
	}
	count = func(e Expr) int {
		n := 1
		switch e := e.(type) {
		case Any:
			n = max(len(alphabet), 1)
		case ClassFn:
			n = 0
			for _, c := range alphabet {
				if e.Fn(c) {
					n++
				}
			}
			n = max(n, 1)
		case ConcatE:
			n = sum(e.Parts)
		case UnionE:
			n = sum(e.Alts)
		case StarE:
			n = count(e.Sub)
		case PlusE:
			n = 2 * count(e.Sub)
		case Capture:
			n = count(e.Sub)
		}
		return min(n, limit)
	}
	return rpq.PositionsError(count(e))
}

func distinctBytes(doc string) []byte {
	var present [256]bool
	for i := 0; i < len(doc); i++ {
		present[doc[i]] = true
	}
	var out []byte
	for c := 0; c < 256; c++ {
		if present[c] {
			out = append(out, byte(c))
		}
	}
	return out
}

// byteDisj is the label disjunction of the alphabet bytes accepted by fn.
// An empty disjunction lowers to a label no document edge carries, which
// the machine resolver drops — the empty language.
func byteDisj(alphabet []byte, fn func(byte) bool) rpq.Expr {
	var alts []rpq.Expr
	for _, c := range alphabet {
		if fn(c) {
			alts = append(alts, rpq.L(string(c)))
		}
	}
	if len(alts) == 0 {
		return rpq.L("∅")
	}
	return rpq.Alt(alts...)
}
