package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"graphquery/internal/graph"
	"graphquery/internal/pg"
)

// jsonLine is the reference: v through a json.Encoder with the service's
// one setting, newline included.
func jsonLine(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzAppendJSONString: on arbitrary bytes the hand-written string encoder
// writes exactly what encoding/json writes. The committed corpus
// (testdata/fuzz) holds one entry per escape class.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "plain", `"\`, "\b\f\n\r\t", "\x00\x1f\x7f", "<>&", "\u2028\u2029", "\U0001F600", "\xff", "a\xe2\x82", "\xed\xa0\x80"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := append(graph.AppendJSONString([]byte("x"), s), '\n')
		if want := jsonLine(t, s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("AppendJSONString(%q) = %q, encoding/json writes %q", s, got[1:], want)
		}
	})
}

// awkwardGraph has a node per way an ID can need escaping.
func awkwardGraph() *graph.Graph {
	b := graph.NewBuilder()
	for _, id := range []graph.NodeID{`a"b`, "c\\d", "\n", "<e>", "\xff", "\u2028"} {
		b.AddNode(id, "", nil)
	}
	return b.MustBuild()
}

// runsOf lays rows — sorted by source — out as the runs a sweep hands over.
func runsOf(rows [][2]int) pg.Runs {
	var runs pg.Runs
	for i, pr := range rows {
		if i == 0 || pr[0] != rows[i-1][0] {
			runs.Src, runs.End = append(runs.Src, int32(pr[0])), append(runs.End, int32(i))
		}
		runs.Tgt = append(runs.Tgt, int32(pr[1]))
		runs.End[len(runs.End)-1]++
	}
	return runs
}

// appendCut encodes rows [from, to) of rb the way a sink filling fixed-size
// buffers does — in calls cut at limit bytes, each on a buffer that starts
// with pre — and holds every call to the rows' reference lines: it appended
// the rows it says it did, at least one, and stopped at the first row that
// reached the limit. It returns the calls' rows, concatenated.
func appendCut(t testing.TB, rb RowBatch, lines [][]byte, from, to int, sep byte, pre []byte, limit int) []byte {
	t.Helper()
	var out []byte
	for from < to {
		got, next := rb.AppendJSON(append([]byte(nil), pre...), from, to, sep, limit)
		if next <= from || next > to {
			t.Fatalf("rows [%d:%d] at limit %d: the call stopped at row %d", from, to, limit, next)
		}
		want := append([]byte(nil), pre...)
		for _, line := range lines[from:next] {
			want = append(want, line...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rows [%d:%d] at limit %d, sep %q:\n got %q\nwant %q", from, next, limit, sep, got, want)
		}
		before := len(got) - len(lines[next-1])
		if next < to && len(got) < limit || next-1 > from && before >= limit {
			t.Fatalf("rows [%d:%d] at limit %d: %d bytes, %d before the last row", from, next, limit, len(got), before)
		}
		out = append(out, got[len(pre):]...)
		from = next
	}
	return out
}

// TestRowBatchAppendJSON: every window of every batch form encodes to what
// encoding/json writes for the same rows in their Sink.Row form, under
// both separators — including the windows that start, end, or do both
// inside a run, where the `["src",` prefix must be quoted afresh, and those
// that span several runs of different lengths — whole, and cut at byte
// limits that stop it after every row, mid-run, or not at all.
func TestRowBatchAppendJSON(t *testing.T) {
	g := awkwardGraph()
	var prs [][2]int
	for u := 0; u < g.NumNodes(); u++ {
		if u == 2 {
			continue // a source with no run
		}
		for v := u; v < g.NumNodes(); v++ {
			prs = append(prs, [2]int{u, v})
		}
	}
	lines := []string{"", `q"`, "l\nl", "\x01"}
	cells := [][]string{{}, {"one"}, {`a"`, "b\\", "\t"}}
	batches := map[string]RowBatch{
		"pairs": pairBatch(g, runsOf(prs)),
		"lines": {n: len(lines), lines: func(i int) string { return lines[i] }},
		"cells": {n: len(cells), cells: func(i int) []string { return cells[i] }},
	}
	for name, rb := range batches {
		for _, sep := range []byte{'\n', ','} {
			lines := make([][]byte, rb.Len())
			for i := range lines {
				if name == "pairs" {
					if got, want := rb.wire(i), [2]string{string(g.NodeID(prs[i][0])), string(g.NodeID(prs[i][1]))}; got != want {
						t.Fatalf("pairs: row %d is %v, want %v", i, got, want)
					}
				}
				lines[i] = jsonLine(t, rb.wire(i))
				lines[i][len(lines[i])-1] = sep
			}
			for from := 0; from <= rb.Len(); from++ {
				for to := from; to <= rb.Len(); to++ {
					want := bytes.Join(lines[from:to], nil)
					if got, next := rb.AppendJSON(nil, from, to, sep, math.MaxInt); !bytes.Equal(got, want) || next != to {
						t.Fatalf("%s[%d:%d] sep %q: stopped at %d\n got %q\nwant %q", name, from, to, sep, next, got, want)
					}
					for _, limit := range []int{0, 1, 17, 40, 96} {
						for _, pre := range [][]byte{nil, []byte("{\"head\":1}\n")} {
							if got := appendCut(t, rb, lines, from, to, sep, pre, limit); !bytes.Equal(got, want) {
								t.Fatalf("%s[%d:%d] sep %q at limit %d:\n got %q\nwant %q", name, from, to, sep, limit, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// namedGraph is a graph whose nodes are the distinct names in names, split
// at '|': the first half built into the base — quoted into its arena — and
// the rest added by an overlay, which the encoder must quote itself.
func namedGraph(t testing.TB, names string) *graph.Graph {
	t.Helper()
	seen := map[string]bool{}
	var ids []string
	for _, id := range strings.Split(names, "|") {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	b := graph.NewBuilder()
	var added []graph.Mutation
	for i, id := range ids {
		if i <= len(ids)/2 || id == "" { // Apply refuses the empty ID; Build takes it
			b.AddNode(graph.NodeID(id), "", nil)
		} else {
			added = append(added, graph.Mutation{Op: graph.MutAddNode, ID: id})
		}
	}
	g, err := b.MustBuild().Apply(added)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FuzzRowBatchRuns: random runs — any number of sources, any run lengths —
// over nodes the fuzzer named, some in the base's arena and some added by an
// overlay, under a random window and both separators encode to what
// encoding/json writes for the same rows spelled out as ID pairs, whole and
// in calls cut at a random byte limit.
func FuzzRowBatchRuns(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(1000), uint16(64), `a"b|c\\d|`+"\n|<e>|\xff|\u2028")
	f.Add(int64(2), uint16(3), uint16(4), uint16(0), "n0|n1|n2|n3|n4|n5|n6")
	f.Add(int64(3), uint16(7), uint16(7), uint16(4096), "|x|"+"\x00"+"|\u2029|q\"")
	f.Add(int64(4), uint16(1), uint16(500), uint16(30), "n0|n1|n2|n3|n4|n5|n6|n7|n8|n9|n10|n11")
	f.Fuzz(func(t *testing.T, seed int64, from, to, limit uint16, names string) {
		g := namedGraph(t, names)
		n := g.NumNodes()
		rng := rand.New(rand.NewSource(seed))
		var prs [][2]int
		for u := 0; u < n; u++ {
			if rng.Intn(3) == 0 {
				continue
			}
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					prs = append(prs, [2]int{u, v})
				}
			}
		}
		rb := pairBatch(g, runsOf(prs))
		lo := min(int(from), len(prs))
		hi := max(lo, min(int(to), len(prs)))
		for _, sep := range []byte{'\n', ','} {
			lines := make([][]byte, len(prs))
			for i, pr := range prs {
				lines[i] = jsonLine(t, [2]string{string(g.NodeID(pr[0])), string(g.NodeID(pr[1]))})
				lines[i][len(lines[i])-1] = sep
			}
			want := bytes.Join(lines[lo:hi], nil)
			if got, _ := rb.AppendJSON(nil, lo, hi, sep, math.MaxInt); !bytes.Equal(got, want) {
				t.Fatalf("seed %d rows [%d:%d] of %d, sep %q:\n got %q\nwant %q", seed, lo, hi, len(prs), sep, got, want)
			}
			if got := appendCut(t, rb, lines, lo, hi, sep, nil, int(limit)); !bytes.Equal(got, want) {
				t.Fatalf("seed %d rows [%d:%d] of %d, sep %q at limit %d:\n got %q\nwant %q", seed, lo, hi, len(prs), sep, limit, got, want)
			}
		}
	})
}

// byteSink is a BatchSink that keeps nothing: it encodes every batch into
// one reused buffer.
type byteSink struct {
	buf  []byte
	rows int
}

func (s *byteSink) Begin(string, []string) error { return nil }
func (s *byteSink) Row(any) error                { panic("a BatchSink is never handed single rows") }
func (s *byteSink) Batch(b RowBatch) (int, time.Duration, error) {
	s.buf, _ = b.AppendJSON(s.buf[:0], 0, b.Len(), '\n', math.MaxInt)
	s.rows += b.Len()
	return b.Len(), 0, nil
}
