package crossval_test

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graphquery/internal/core"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
)

var updateGoldenPMR = flag.Bool("update-golden-pmr", false, "rewrite testdata/pmr.golden")

// goldenPMRTexts are RPQs of every shape the pmr kind builds on: an
// unambiguous acyclic one, a cyclic one, two ambiguous ones (one of them
// cyclic, one not) and one whose label no graph has.
var goldenPMRTexts = []string{"a b | b a", "(a|b)*", "a a* | a* a", "a b? | a? b", "z"}

// encodeSink is a core.BatchSink that encodes every row as the serving
// formats do, each value followed by sep: ',' for the buffered body, '\n'
// for NDJSON.
type encodeSink struct {
	sep byte
	buf []byte
}

func (s *encodeSink) Begin(string, []string) error { return nil }
func (s *encodeSink) Row(any) error                { panic("a BatchSink is never handed single rows") }
func (s *encodeSink) Batch(b core.RowBatch) (int, time.Duration, error) {
	s.buf, _ = b.AppendJSON(s.buf, 0, b.Len(), s.sep, 1<<30)
	return b.Len(), 0, nil
}

// TestGoldenPMR pins the served pmr replies: on two seeded random graphs,
// each materialized and as an overlay with removed nodes and edges, for
// every golden text between four anchor pairs (one of them names a node
// the overlay removed), in modes all and shortest, at limits 1, 7 and 100,
// and encoded both ways. Each case records, per format, the row count, the
// meter's states_visited and rows_produced and a SHA-256 of the encoded
// body — or the error — and at limit 7 the rows themselves (the other
// limits' are pinned by their hashes). Run with -update-golden-pmr to rewrite
// testdata/pmr.golden.
func TestGoldenPMR(t *testing.T) {
	// A cancelable context gives the query a meter to read.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var b strings.Builder
	for _, seed := range []int64{3, 19} {
		base := gen.Random(7, 26, []string{"a", "b", "c"}, seed)
		over, err := base.Apply([]graph.Mutation{
			{Op: graph.MutRemoveNode, ID: "v4"},
			{Op: graph.MutRemoveEdge, ID: "e3"},
			{Op: graph.MutRemoveEdge, ID: "e8"},
			{Op: graph.MutAddNode, ID: "w0"},
			{Op: graph.MutAddEdge, ID: "f0", Label: "a", Src: "v0", Tgt: "w0"},
			{Op: graph.MutAddEdge, ID: "f1", Label: "b", Src: "w0", Tgt: "v2"},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, gg := range []struct {
			name string
			g    *graph.Graph
		}{{fmt.Sprintf("random-%d", seed), base}, {fmt.Sprintf("random-%d-overlay", seed), over}} {
			e := core.New(gg.g)
			for _, text := range goldenPMRTexts {
				for _, anchors := range [][2]graph.NodeID{{"v0", "v2"}, {"v1", "v1"}, {"v3", "v5"}, {"v4", "v6"}} {
					for _, mode := range []eval.Mode{eval.All, eval.Shortest} {
						for _, limit := range []int{1, 7, 100} {
							fmt.Fprintf(&b, "%s %q %s->%s %s limit %d\n", gg.name, text, anchors[0], anchors[1], mode, limit)
							req := core.Request{Query: text, Lang: "pmr", From: anchors[0], To: anchors[1], Mode: mode, Limit: limit}
							goldenPMRCase(ctx, &b, e, req)
						}
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "pmr.golden")
	got := b.String()
	if *updateGoldenPMR {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("pmr replies differ from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("pmr replies differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
}

// goldenPMRCase serves req once per format and writes what it answered.
func goldenPMRCase(ctx context.Context, b *strings.Builder, e *core.Engine, req core.Request) {
	var rows string
	for _, f := range []struct {
		name string
		sep  byte
	}{{"buffered", ','}, {"ndjson", '\n'}} {
		sink := &encodeSink{sep: f.sep}
		resp, err := e.QueryStream(ctx, req, sink)
		if err != nil {
			fmt.Fprintf(b, "  %s error %s\n", f.name, err)
			continue
		}
		fmt.Fprintf(b, "  %s count %d states %d rows %d sha256 %x\n", f.name, resp.Count(),
			resp.StatesVisited, resp.RowsProduced, sha256.Sum256(sink.buf))
		if f.sep == '\n' && req.Limit == 7 {
			rows = string(sink.buf)
		}
	}
	for _, line := range strings.SplitAfter(rows, "\n") {
		if line != "" {
			fmt.Fprintf(b, "    %s", line)
		}
	}
}
