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

// spareBuf returns pre in a buffer with spare bytes of capacity past it, each
// 0xFF — a byte no JSON row holds, so a row that picked one up shows, and so
// does a row stored past its end.
func spareBuf(pre []byte, spare int) []byte {
	buf := bytes.Repeat([]byte{0xFF}, len(pre)+spare)
	return buf[:copy(buf, pre)]
}

// appendCut encodes rows [from, to) of rb the way a sink filling fixed-size
// buffers does — in calls cut at limit bytes, each on a buffer that starts
// with pre and has spare bytes of capacity past it — and holds every call
// to the rows' reference lines: it appended the rows it says it did, at
// least one, and stopped at the first row that reached the limit. It
// returns the calls' rows, concatenated.
func appendCut(t testing.TB, rb RowBatch, lines [][]byte, from, to int, sep byte, pre []byte, spare, limit int) []byte {
	t.Helper()
	var out []byte
	for from < to {
		got, next := rb.AppendJSON(spareBuf(pre, spare), from, to, sep, limit)
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
							for _, spare := range []int{0, 4096} {
								if got := appendCut(t, rb, lines, from, to, sep, pre, spare, limit); !bytes.Equal(got, want) {
									t.Fatalf("%s[%d:%d] sep %q at limit %d, %d spare:\n got %q\nwant %q", name, from, to, sep, limit, spare, got, want)
								}
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
	// Literals a byte short of, at, and a byte past one and two 16-byte
	// words, plain, escaped and multibyte, on both sides of the overlay.
	f.Add(int64(5), uint16(0), uint16(4000), uint16(0), strings.Join(wordWidthIDs(), "|"))
	f.Add(int64(6), uint16(5), uint16(300), uint16(100), strings.Join(wordWidthIDs()[3:], "|"))
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
			for _, spare := range []int{0, 4096} {
				if got, _ := rb.AppendJSON(spareBuf(nil, spare), lo, hi, sep, math.MaxInt); !bytes.Equal(got, want) {
					t.Fatalf("seed %d rows [%d:%d] of %d, sep %q, %d spare:\n got %q\nwant %q", seed, lo, hi, len(prs), sep, spare, got, want)
				}
				if got := appendCut(t, rb, lines, lo, hi, sep, nil, spare, int(limit)); !bytes.Equal(got, want) {
					t.Fatalf("seed %d rows [%d:%d] of %d, sep %q at limit %d, %d spare:\n got %q\nwant %q", seed, lo, hi, len(prs), sep, limit, spare, got, want)
				}
			}
		}
	})
}

// wordWidthIDs are IDs whose JSON literals (quotes included) are 1, 15, 16,
// 17, 31, 32, 33 and 40 bytes long, or as close above as the spelling
// allows: plain, with escapes, with multibyte runes; the IDs of those byte
// lengths, plain; and the empty ID.
func wordWidthIDs() []string {
	seen := map[string]bool{}
	var ids []string
	add := func(id string) {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	add("")
	for _, n := range []int{1, 15, 16, 17, 31, 32, 33, 40} {
		add(strings.Repeat("x", n))
		for _, motif := range []string{"", `"\`, "\x01\n", "é€😀", " <&>"} {
			id := motif
			for len(graph.AppendJSONString(nil, id)) < n {
				id += "x"
			}
			add(id)
		}
	}
	return ids
}

// TestRowBatchWordPath: pair rows over literals of every width around one
// and two 16-byte words — sources whose `["src",` prefix fits one word and
// sources whose prefix does not, each in the base's arena and added by an
// overlay, against every target — encode to what encoding/json writes,
// whole and cut at byte limits that stop mid-run, on a buffer with ample
// spare capacity (later rows take the word path) and with none (rows are
// appended). Then, deterministically, each later row on a buffer with
// exactly rowRoom spare bytes for it is stored in words without regrowing
// the buffer, and with one byte less is appended: the buffer is regrown or
// nothing past the row is touched.
func TestRowBatchWordPath(t *testing.T) {
	ids := wordWidthIDs()
	b := graph.NewBuilder()
	for _, id := range ids {
		b.AddNode(graph.NodeID(id), "", nil)
	}
	g, err := b.MustBuild().Apply([]graph.Mutation{
		{Op: graph.MutAddNode, ID: "o"},
		{Op: graph.MutAddNode, ID: "over\"lay-node-with-a-long-name"},
		{Op: graph.MutAddNode, ID: strings.Repeat("€", 5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, base := g.NumNodes(), len(ids)
	line := func(u, v int, sep byte) []byte {
		l := jsonLine(t, [2]string{string(g.NodeID(u)), string(g.NodeID(v))})
		l[len(l)-1] = sep
		return l
	}
	prefixLen := func(u int) int { return len(graph.AppendJSONString(nil, string(g.NodeID(u)))) + 2 }
	// A short and a long prefix from the arena, then from the overlay.
	srcs := []int{1, base - 1, base, base + 1}
	for i, u := range srcs {
		if p := prefixLen(u); p > 16 != (i%2 == 1) {
			t.Fatalf("source %d has a %d-byte prefix", u, p)
		}
	}
	var prs [][2]int
	for _, u := range srcs {
		for v := 0; v < n; v++ {
			prs = append(prs, [2]int{u, v})
		}
	}
	rb := pairBatch(g, runsOf(prs))
	for _, sep := range []byte{'\n', ','} {
		lines := make([][]byte, len(prs))
		for i, pr := range prs {
			lines[i] = line(pr[0], pr[1], sep)
		}
		for _, spare := range []int{0, 1 << 16} {
			want := bytes.Join(lines, nil)
			if got, next := rb.AppendJSON(spareBuf(nil, spare), 0, len(prs), sep, math.MaxInt); !bytes.Equal(got, want) || next != len(prs) {
				t.Fatalf("sep %q, %d spare: stopped at %d\n got %q\nwant %q", sep, spare, next, got, want)
			}
			want = bytes.Join(lines[3:len(prs)-2], nil)
			for _, limit := range []int{1, 50, 333, 1000} {
				if got := appendCut(t, rb, lines, 3, len(prs)-2, sep, []byte("{}"), spare, limit); !bytes.Equal(got, want) {
					t.Fatalf("sep %q at limit %d, %d spare:\n got %q\nwant %q", sep, limit, spare, got, want)
				}
			}
		}

		pre := []byte("{\"head\":1}\n")
		for _, u := range srcs {
			p := prefixLen(u)
			for v := 0; v < base; v++ { // targets the arena holds
				lit, _ := g.QuotedNodeID(v)
				rows := pairBatch(g, runsOf([][2]int{{u, 0}, {u, v}}))
				head := line(u, 0, sep)
				wantRows := append(append(append([]byte(nil), pre...), head...), line(u, v, sep)...)
				room := rowRoom(p, len(lit))
				for _, less := range []int{0, 1} {
					buf := spareBuf(pre, len(head)+room-less)
					got, next := rows.AppendJSON(buf, 0, 2, sep, math.MaxInt)
					if next != 2 || !bytes.Equal(got, wantRows) {
						t.Fatalf("source %d, target %d, room %d-%d: stopped at %d\n got %q\nwant %q", u, v, room, less, next, got, wantRows)
					}
					kept := &got[0] == &buf[0]
					past := got[len(got):cap(got)]
					touched := bytes.Count(past, []byte{0xFF}) != len(past)
					switch {
					case less == 0 && !kept:
						t.Errorf("source %d, target %d: a row with exactly its room regrew the buffer", u, v)
					case less == 0 && len(lit) <= word && room > p+len(lit)+2 && !touched:
						t.Errorf("source %d, target %d: a row with exactly its room was not stored in words", u, v)
					case less == 1 && kept && touched:
						t.Errorf("source %d, target %d: a row one byte short of its room wrote past its end", u, v)
					}
				}
			}
		}
	}
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
