// The row encoder: the one place result rows become wire bytes.
//
// A RowBatch is a run of rows still in the evaluator's own form — the runs
// of index pairs out of the kernel's all-sources driver, rendered lines, or
// cell slices — and AppendJSON appends them to a buffer the sink owns, each
// row as one JSON value. Both serving formats are these bytes: NDJSON puts a
// newline after each row, the buffered body a comma. Nothing per row is
// boxed, reflected over, or copied into an intermediate row type; the
// bytes are what encoding/json (SetEscapeHTML(false)) writes for the same
// rows, which encode_test.go and the server's differential test pin.
package core

import (
	"time"

	"graphquery/internal/graph"
	"graphquery/internal/pg"
)

// RowBatch is a run of result rows of one kind, not yet encoded. Exactly
// one of runs (with its graph), lines and cells is set.
type RowBatch struct {
	n     int
	g     *graph.Graph
	runs  pg.Runs              // kind "pairs": a sweep batch as it left the kernel, row i its i-th pair
	lines func(i int) string   // kinds "paths", "matches", "spans"
	cells func(i int) []string // kinds "rows", "relation"
}

// pairBatch is the batch of a sweep's runs over g.
func pairBatch(g *graph.Graph, runs pg.Runs) RowBatch {
	return RowBatch{n: runs.Len(), g: g, runs: runs}
}

// Len returns the number of rows in the batch.
func (b RowBatch) Len() int { return b.n }

// AppendJSON appends rows from `from` on, each as one JSON value followed
// by sep, until row `to` or until dst has reached limit bytes, and returns
// the extended buffer and the first row it did not append. The first row is
// appended whatever the limit, so every call with from < to makes progress;
// every later row is appended only while len(dst) < limit, so dst ends at
// most one row past the limit — a sink that leaves a row's worth of room
// past the limit in its buffer never has append regrow it. Bytes of dst's
// spare capacity past the returned length may be overwritten: a pair row's
// prefix and name are each stored as one 16-byte word when they fit it, and
// the word's tail may run past the row.
//
// A pair's two names are copied from the literals the graph quoted when it
// was built (graph.QuotedNodeID; only a node an overlay added since is
// escaped here), a run at a time: its `["src",` prefix is written once, for
// the first of its rows in the call, and copied for the rest (appendRun).
func (b RowBatch) AppendJSON(dst []byte, from, to int, sep byte, limit int) ([]byte, int) {
	first := from
	switch {
	case b.g != nil:
		for i := b.runs.Find(from); from < to; i++ {
			end := min(int(b.runs.End[i]), to)
			if from > first && len(dst) >= limit {
				return dst, from
			}
			p0 := len(dst)
			dst = append(dst, '[')
			dst = b.g.AppendNodeIDJSON(dst, int(b.runs.Src[i]))
			dst = append(dst, ',')
			p := len(dst) - p0
			dst = b.g.AppendNodeIDJSON(dst, int(b.runs.Tgt[from]))
			dst = append(dst, ']', sep)
			var n int
			dst, n = appendRun(b.g, dst, p0, p, b.runs.Tgt[from+1:end], sep, limit)
			if from += 1 + n; from < end {
				return dst, from
			}
		}
	case b.lines != nil:
		for ; from < to; from++ {
			if from > first && len(dst) >= limit {
				return dst, from
			}
			dst = graph.AppendJSONString(dst, b.lines(from))
			dst = append(dst, sep)
		}
	default:
		for ; from < to; from++ {
			if from > first && len(dst) >= limit {
				return dst, from
			}
			dst = append(dst, '[')
			for j, c := range b.cells(from) {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = graph.AppendJSONString(dst, c)
			}
			dst = append(dst, ']', sep)
		}
	}
	return dst, from
}

// word is the width of the store a pair row's prefix and name are written
// with when they fit it: the arena's padding, so a word loaded from any
// literal stays in bounds.
const word = graph.QuotePad

// appendRun appends a row for each target in tgts — the run's prefix, the p
// bytes at dst[p0:], then the target's literal, `]` and sep — while
// len(dst) < limit, and returns dst and how many rows it appended: the rows
// storeRows can store, and between them, one at a time, a row whose target
// an overlay added or for which dst has no rowRoom, appended.
func appendRun(g *graph.Graph, dst []byte, p0, p int, tgts []int32, sep byte, limit int) ([]byte, int) {
	for j := 0; ; j++ {
		var k int
		dst, k = storeRows(g, dst, p0, p, tgts[j:], sep, limit)
		if j += k; j == len(tgts) || len(dst) >= limit {
			return dst, j
		}
		dst = append(dst, dst[p0:p0+p]...)
		dst = g.AppendNodeIDJSON(dst, int(tgts[j]))
		dst = append(dst, ']', sep)
	}
}

// storeRows stores appendRun's rows while len(dst) < limit, the arena holds
// the target and dst's spare capacity has rowRoom for the row, and returns
// dst and how many rows it stored: the prefix read back from the run's first
// row at dst[p0:] (a row's room past it covers the prefix's word), then the
// target's literal from the arena, each by putWord. The loop makes no call
// but a long name's copy, so it keeps its state in registers.
func storeRows(g *graph.Graph, dst []byte, p0, p int, tgts []int32, sep byte, limit int) ([]byte, int) {
	pre := dst[p0 : p0+p]
	for j, v := range tgts {
		n := len(dst)
		lit, ok := g.QuotedNodeID(int(v))
		if n >= limit || !ok || rowRoom(p, len(lit)) > cap(dst)-n {
			return dst, j
		}
		w := dst[n:cap(dst)]
		putWord(w, pre)
		putWord(w[p:], lit)
		m := p + len(lit)
		w[m], w[m+1] = ']', sep
		dst = dst[:n+m+2]
	}
	return dst, len(tgts)
}

// rowRoom is the spare capacity storeRows needs for a pair row whose prefix
// is p bytes and whose target's literal l: the prefix, then the literal's
// word or the literal with `]` and sep, whichever reaches further. The
// prefix's own word ends before that.
func rowRoom(p, l int) int {
	return p + max(word, l+2)
}

// putWord copies src to the start of dst: a src of up to a word in one
// 16-byte assignment, which reads past src's end, so src must have the
// capacity, and writes past it, so dst must have the room; a longer one
// with copy. The bytes a word carries past src's end are garbage: the rest
// of the row overwrites them, or they lie past its end.
func putWord(dst, src []byte) {
	if len(src) > word {
		copy(dst, src)
		return
	}
	*(*[word]byte)(dst) = *(*[word]byte)(src[:word])
}

// wire returns row i in the form Sink.Row documents.
func (b RowBatch) wire(i int) any {
	switch {
	case b.g != nil:
		src := b.runs.Src[b.runs.Find(i)]
		return [2]string{string(b.g.NodeID(int(src))), string(b.g.NodeID(int(b.runs.Tgt[i])))}
	case b.lines != nil:
		return b.lines(i)
	default:
		return b.cells(i)
	}
}

// BatchSink is the optional fast path of a Sink, detected once per query
// the way io.Copy detects io.ReaderFrom: a sink that has it receives whole
// batches and encodes them into its own buffer with RowBatch.AppendJSON,
// and its Row is never called.
//
// Batch consumes the batch's rows in order and returns how many it took —
// dropped under a cursor skip or encoded; n < b.Len() only together with
// an error (ErrStopStream when a page filled mid-batch) — and how long it
// waited on its consumer (a full chunk channel), which the engine accounts
// to the "stream" stage rather than to encoding. The calling and ownership
// rules are Row's.
type BatchSink interface {
	Sink
	Batch(b RowBatch) (n int, waited time.Duration, err error)
}

// rowAdapter delivers batches to a sink that has only Row, one rendered
// row at a time. bench/ is frozen against Sink{Begin, Row(any)} (its
// discardSink); ROADMAP item 1(a) moves it onto BatchSink and deletes this
// adapter, RowBatch.wire and Sink.Row with it.
type rowAdapter struct{ Sink }

func (a rowAdapter) Batch(b RowBatch) (int, time.Duration, error) {
	for i := 0; i < b.n; i++ {
		if err := a.Row(b.wire(i)); err != nil {
			return i, 0, err
		}
	}
	return b.n, 0, nil
}
