package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"graphquery/internal/core"
	"graphquery/internal/eval"
	"graphquery/internal/graph"
)

// The wire differential: result rows reach the client through the engine's
// append-style row encoder, never through encoding/json, and the buffered
// body is assembled around them by hand — so every reply form is compared
// here, byte for byte, with a reference that encoding/json produces from
// the typed core.Response of the same query (refBody, refStream). The
// graph's IDs and strings are everything a JSON string encoder can get
// wrong.

// nasty are the strings node and edge IDs are built from: each JSON escape
// class, every control byte, DEL, the HTML characters encoding/json escapes
// by default (and this service does not), the two line separators it always
// escapes, a non-BMP rune, and invalid UTF-8.
var nasty = func() []string {
	out := []string{
		`q"uote`, `back\slash`, "new\nline", "t\tab", "b\bs", "f\ff", "c\rr",
		"del\x7f", "<html>&amp;", "ls\u2028ps\u2029", "astral\U0001F600", "\xff\xfe bad utf8",
		"trunc\xe2\x82", "", "plain",
	}
	for c := 0; c < 0x20; c++ {
		out = append(out, "ctl"+string(rune(c)))
	}
	return out
}()

func nastyID(i int) string { return fmt.Sprintf("%s#%d", nasty[i%len(nasty)], i) }

// nastyGraph is a path of n nodes under label a (so `a*` has n(n+1)/2 rows
// in runs of n, n-1, … per source: several batches, every page cut lands
// mid-source), with a b edge back from each node to node 0 and a string
// property on every node.
func nastyGraph(n int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(graph.NodeID(nastyID(i)), "N", graph.Props{"s": graph.Str(nastyID(i + 7))})
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.EdgeID("e"+nastyID(i)), "a", graph.NodeID(nastyID(i)), graph.NodeID(nastyID(i+1)), nil)
		b.AddEdge(graph.EdgeID("f"+nastyID(i)), "b", graph.NodeID(nastyID(i+1)), graph.NodeID(nastyID(0)), nil)
	}
	return b.MustBuild()
}

// nastyOverlay is nastyGraph(n) with its last six nodes and their edges
// added by a mutation batch: the base's arena holds the literals of the
// others, these six are quoted row by row.
func nastyOverlay(t *testing.T, n int) *graph.Graph {
	t.Helper()
	var muts []graph.Mutation
	for i := n - 6; i < n; i++ {
		muts = append(muts, graph.Mutation{Op: graph.MutAddNode, ID: nastyID(i), Label: "N", Props: graph.Props{"s": graph.Str(nastyID(i + 7))}})
	}
	for i := n - 7; i+1 < n; i++ {
		muts = append(muts,
			graph.Mutation{Op: graph.MutAddEdge, ID: "e" + nastyID(i), Label: "a", Src: nastyID(i), Tgt: nastyID(i + 1)},
			graph.Mutation{Op: graph.MutAddEdge, ID: "f" + nastyID(i), Label: "b", Src: nastyID(i + 1), Tgt: nastyID(0)})
	}
	g, err := nastyGraph(n - 6).Apply(muts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var elapsedRE = regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)

func maskElapsed(b []byte) []byte { return elapsedRE.ReplaceAll(b, []byte(`"elapsed_ms":0`)) }

func refEncode(t *testing.T, buf *bytes.Buffer, v any) {
	t.Helper()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
}

// refRows renders a typed response to the wire rows of its kind, the way
// Sink.Row documents them, plus the column header.
func refRows(resp *core.Response) (rows []any, columns []string) {
	g := resp.G
	switch resp.Kind {
	case "pairs":
		for _, pr := range resp.Pairs {
			rows = append(rows, [2]string{string(pr[0]), string(pr[1])})
		}
	case "paths":
		for _, p := range resp.Paths {
			rows = append(rows, p.Format(g))
		}
	case "matches", "spans":
		for _, m := range resp.Matches {
			rows = append(rows, m)
		}
	case "rows":
		columns = resp.Rows.Head
		for _, r := range resp.Rows.Rows {
			row := make([]string, len(r))
			for j, v := range r {
				row[j] = v.Format(g)
			}
			rows = append(rows, row)
		}
	case "relation":
		columns = resp.Rel.Attrs()
		for _, tup := range resp.Rel.Sorted() {
			row := make([]string, len(tup))
			for j, c := range tup {
				row[j] = c.Format(g)
			}
			rows = append(rows, row)
		}
	}
	return rows, columns
}

// refBody is the buffered reply: the whole QueryResponse through
// encoding/json.
func refBody(t *testing.T, graphName string, resp *core.Response) []byte {
	t.Helper()
	rows, columns := refRows(resp)
	out := QueryResponse{
		Graph: graphName, Kind: resp.Kind, Columns: columns, Count: resp.Count(),
		StatesVisited: resp.StatesVisited, RowsProduced: resp.RowsProduced, Analyze: resp.Analyze,
	}
	for _, r := range rows {
		switch row := r.(type) {
		case [2]string:
			out.Pairs = append(out.Pairs, row)
		case []string:
			out.Rows = append(out.Rows, row)
		case string:
			switch resp.Kind {
			case "paths":
				out.Paths = append(out.Paths, row)
			case "matches":
				out.Matches = append(out.Matches, row)
			case "spans":
				out.Spans = append(out.Spans, row)
			}
		}
	}
	if resp.Bag != nil {
		out.Value = resp.Bag.String()
	}
	var buf bytes.Buffer
	refEncode(t, &buf, out)
	return buf.Bytes()
}

// refStream is the NDJSON reply for rows [from, to) of the result: header,
// one encoding/json line per row, trailer.
func refStream(t *testing.T, graphName string, resp *core.Response, from, to int, tr streamTrailer) []byte {
	t.Helper()
	rows, columns := refRows(resp)
	var buf bytes.Buffer
	refEncode(t, &buf, streamHeader{Graph: graphName, Kind: resp.Kind, Columns: columns})
	for _, r := range rows[from:min(to, len(rows))] {
		refEncode(t, &buf, r)
	}
	refEncode(t, &buf, trailerLine{Trailer: tr})
	return buf.Bytes()
}

// rowOnlySink implements core.Sink and nothing more, so the engine serves
// it through its Row adapter; it encodes each row with encoding/json.
type rowOnlySink struct {
	t   *testing.T
	buf bytes.Buffer
}

func (s *rowOnlySink) Begin(string, []string) error { return nil }
func (s *rowOnlySink) Row(v any) error              { refEncode(s.t, &s.buf, v); return nil }

func TestWireBytesMatchEncodingJSON(t *testing.T) {
	const graphName = `g<"&>` + "\u2028"
	const n = 90 // batches of 8, 64 and 18 sources
	t.Run("overlay", func(t *testing.T) { wireBytesMatch(t, graphName, n, nastyOverlay(t, n)) })
	t.Run("path-700", wireBytesManySegments)
	wireBytesMatch(t, graphName, n, nastyGraph(n))
}

// wireBytesManySegments: the buffered reply to path-700 `a*` — 246 051 rows,
// 3.9 MB — is built in dozens of segments, and is still byte for byte what
// encoding/json writes, under a Content-Length that counts all of it.
func wireBytesManySegments(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if err := s.LoadNamed("path-700"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	typed, err := s.Engine("path-700").QueryCtx(ctx, core.Request{Query: "a*"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"graph":"path-700","query":"a*"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d err %v", resp.StatusCode, err)
	}
	if len(raw) < 10*segSize {
		t.Fatalf("a body of %d bytes fills fewer than ten segments", len(raw))
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
		t.Fatalf("Content-Length %q for a body of %d bytes", cl, len(raw))
	}
	if got, want := maskElapsed(raw), maskElapsed(refBody(t, "path-700", typed)); !bytes.Equal(got, want) {
		t.Fatalf("body of %d bytes differs from the %d encoding/json writes", len(got), len(want))
	}
}

// wireBytesMatch holds every reply over g — a nastyGraph(n), built or left as
// an overlay — to encoding/json.
func wireBytesMatch(t *testing.T, graphName string, n int, g *graph.Graph) {
	s := New(Config{Parallelism: 1})
	s.chunkBytes = 200 // a chunk every few rows, cut mid-batch and mid-source
	eng := s.Register(graphName, g)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	mid, last := nastyID(3), nastyID(6)
	cases := []struct {
		name string
		req  QueryRequest
		rows int // -1: whatever the query yields, but not none
	}{
		{"pairs-kernel", QueryRequest{Query: "a*"}, n * (n + 1) / 2},
		{"pairs-analyze", QueryRequest{Query: "a a*", Analyze: true}, -1},
		{"pairs-backward", QueryRequest{Query: "b* a"}, -1},
		{"pairs-cypher", QueryRequest{Lang: "cypher", Query: "-[:a]->-[:b]->"}, -1},
		{"pairs-2rpq", QueryRequest{Lang: "2rpq", Query: "~a a a"}, -1},
		{"pairs-empty", QueryRequest{Query: "b a a b b"}, 0},
		{"pairs-one-row", QueryRequest{Query: "a{" + fmt.Sprint(n-1) + "}"}, 1},
		{"paths", QueryRequest{Query: "(a|b)*", From: mid, To: last, Mode: "trail", MaxLen: 8, Limit: 40}, -1},
		{"rows", QueryRequest{Query: "q(x,y,z) :- a(x,y), b(y,z)"}, -1},
		{"rows-empty", QueryRequest{Query: "q(x) :- c(x,x)"}, 0},
		{"matches", QueryRequest{Lang: "gql", Query: "(x)-[:a]->(y)"}, -1},
		{"spans", QueryRequest{Lang: "spanner", Doc: "a\"b\\\n\u2028<a>", Query: `x{a*}y{.*}`}, -1},
		{"relation", QueryRequest{Lang: "relalg", Query: "REACH(a) AS (x, y)"}, -1},
		{"bag", QueryRequest{Lang: "bag", Query: "a a"}, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			req.Graph = graphName
			mode := eval.All
			if req.Mode != "" {
				var err error
				if mode, err = eval.ParseMode(req.Mode); err != nil {
					t.Fatal(err)
				}
			}
			creq := core.Request{
				Query: req.Query, Lang: req.Lang, Doc: req.Doc,
				From: graph.NodeID(req.From), To: graph.NodeID(req.To), Mode: mode,
				MaxLen: req.MaxLen, Limit: req.Limit, Analyze: req.Analyze,
			}
			post := func(req QueryRequest) (string, []byte) {
				t.Helper()
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				raw, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d err %v: %s", resp.StatusCode, err, raw)
				}
				ct := resp.Header.Get("Content-Type")
				if cl := resp.Header.Get("Content-Length"); ct == "application/json" && cl != strconv.Itoa(len(raw)) {
					t.Fatalf("Content-Length %q for a body of %d bytes", cl, len(raw))
				}
				return ct, raw
			}
			same := func(what string, got, want []byte) {
				t.Helper()
				if got, want := maskElapsed(got), maskElapsed(want); !bytes.Equal(got, want) {
					t.Fatalf("%s differs from encoding/json:\n got: %q\nwant: %q", what, got, want)
				}
			}

			// Warm the plan once so the reference and the replies run the
			// same plan from the same cache state.
			// (A cancelable context, as a served query has: without one the
			// engine runs meterless and reads no states.)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if _, err := eng.QueryCtx(ctx, creq); err != nil {
				t.Fatal(err)
			}
			typed, err := eng.QueryCtx(ctx, creq)
			if err != nil {
				t.Fatal(err)
			}
			total := typed.Count()
			if tc.rows >= 0 && total != tc.rows || tc.rows < 0 && total == 0 {
				t.Fatalf("query yields %d rows, the case wants %d", total, tc.rows)
			}

			_, buffered := post(req)
			same("buffered body", buffered, refBody(t, graphName, typed))

			req.Stream = true
			ct, streamed := post(req)
			if typed.Kind == "bag" {
				// One aggregate value never touches the sink: the streamed
				// request gets the buffered body.
				same("streamed bag body", streamed, refBody(t, graphName, typed))
				return
			}
			if ct != "application/x-ndjson" {
				t.Fatalf("Content-Type %q", ct)
			}
			same("NDJSON reply", streamed, refStream(t, graphName, typed, 0, total, streamTrailer{
				Status: "ok", Count: total, StatesVisited: typed.StatesVisited, RowsProduced: typed.RowsProduced,
			}))

			// A sink with Row alone gets the same rows through the adapter.
			sink := &rowOnlySink{t: t}
			if _, err := eng.QueryStream(ctx, creq, sink); err != nil {
				t.Fatal(err)
			}
			var rowLines bytes.Buffer
			rows, _ := refRows(typed)
			for _, r := range rows {
				refEncode(t, &rowLines, r)
			}
			same("Row-only sink", sink.buf.Bytes(), rowLines.Bytes())

			if req.Limit > 0 || total == 0 {
				return // the limit is the page size below
			}
			// Cursor pages: 37 divides neither a batch nor a source's run, so
			// skips and page bounds cut mid-batch and mid-source. How far a
			// page's evaluation ran before it stopped is the page's own
			// business: its trailer's meter readings are taken as read.
			req.Limit, req.Cursor = 37, "start"
			for from := 0; ; from += 37 {
				_, page := post(req)
				var tl trailerLine
				lines := bytes.Split(bytes.TrimSuffix(page, []byte("\n")), []byte("\n"))
				if err := json.Unmarshal(lines[len(lines)-1], &tl); err != nil {
					t.Fatalf("page trailer: %v in %q", err, page)
				}
				want := streamTrailer{
					Status: "ok", Count: min(37, total-from),
					StatesVisited: tl.Trailer.StatesVisited, RowsProduced: tl.Trailer.RowsProduced,
				}
				if from+37 <= total {
					want.NextCursor = fmt.Sprintf("v%d:%d", typed.GraphRev, from+37)
				}
				same(fmt.Sprintf("page at %d", from), page, refStream(t, graphName, typed, from, from+37, want))
				if req.Cursor = tl.Trailer.NextCursor; req.Cursor == "" {
					if from+37 < total {
						t.Fatalf("paging ended at %d of %d rows", from+37, total)
					}
					break
				}
			}
		})
	}
}
