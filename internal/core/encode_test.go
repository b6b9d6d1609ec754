package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"graphquery/internal/graph"
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
		got := append(appendJSONString([]byte("x"), s), '\n')
		if want := jsonLine(t, s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("appendJSONString(%q) = %q, encoding/json writes %q", s, got[1:], want)
		}
	})
}

// TestRowBatchAppendJSON: every window of every batch form encodes to what
// encoding/json writes for the same rows in their Sink.Row form, under
// both separators — including windows that start inside a run of equal
// sources, where the `["src",` prefix must be quoted afresh.
func TestRowBatchAppendJSON(t *testing.T) {
	b := graph.NewBuilder()
	ids := []graph.NodeID{`a"b`, "c\\d", "\n", "<e>", "\xff", "\u2028"}
	for _, id := range ids {
		b.AddNode(id, "", nil)
	}
	g := b.MustBuild()
	var prs [][2]int
	for u := range ids {
		for v := u; v < len(ids); v++ {
			prs = append(prs, [2]int{u, v})
		}
	}
	lines := []string{"", `q"`, "l\nl", "\x01"}
	cells := [][]string{{}, {"one"}, {`a"`, "b\\", "\t"}}
	batches := map[string]RowBatch{
		"pairs": {n: len(prs), g: g, pairs: prs},
		"lines": {n: len(lines), lines: func(i int) string { return lines[i] }},
		"cells": {n: len(cells), cells: func(i int) []string { return cells[i] }},
	}
	for name, rb := range batches {
		for from := 0; from <= rb.Len(); from++ {
			for to := from; to <= rb.Len(); to++ {
				for _, sep := range []byte{'\n', ','} {
					var want []byte
					for i := from; i < to; i++ {
						line := jsonLine(t, rb.wire(i))
						line[len(line)-1] = sep
						want = append(want, line...)
					}
					if got := rb.AppendJSON(nil, from, to, sep); !bytes.Equal(got, want) {
						t.Fatalf("%s[%d:%d] sep %q:\n got %q\nwant %q", name, from, to, sep, got, want)
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
	s.buf = b.AppendJSON(s.buf[:0], 0, b.Len(), '\n')
	s.rows += b.Len()
	return b.Len(), 0, nil
}
