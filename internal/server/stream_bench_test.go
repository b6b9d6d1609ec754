package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphquery/internal/core"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
)

// BenchmarkE17_Streaming compares the two delivery paths end to end on a
// large scale-free result (a* over the giant strongly connected core:
// roughly n² pairs): "buffered" materializes the whole QueryResponse and
// reads one JSON body, "streamed" drains the chunked NDJSON response. Both
// sides read the full result through HTTP, so the delta isolates delivery
// — peak memory and time-to-first-row are the streamed path's wins; the
// per-row encoding work is identical by construction (byte-identical
// rows).
func BenchmarkE17_Streaming(b *testing.B) {
	s := New(Config{})
	if err := s.LoadNamed("scalefree-1000"); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	const body = `{"graph":"scalefree-1000","query":"a*"}`

	b.Run("buffered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			n, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d err %v", resp.StatusCode, err)
			}
			b.SetBytes(n)
		}
	})
	b.Run("streamed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(body))
			req.Header.Set("Accept", "application/x-ndjson")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			n, err := io.Copy(io.Discard, bufio.NewReaderSize(resp.Body, 1<<16))
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d err %v", resp.StatusCode, err)
			}
			b.SetBytes(n)
		}
	})
}

// discardResponse is an http.ResponseWriter that counts bytes and keeps
// none, so the served benchmarks below time the handler — evaluate, encode,
// chunk hand-off, Write calls — without a socket or a client behind it.
type discardResponse struct {
	h http.Header
	n int64
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { d.n += int64(len(p)); return len(p), nil }
func (d *discardResponse) Flush()                      {}

// countingListener counts the Write calls made on every connection it
// accepts: what a reply costs the socket.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// BenchmarkServedPairs is the all-pairs reply as a callable layer: POST
// /v1/query through the handler in-process. The first four rows are the
// output path — `a*` on the two big-results graphs of bench/ (path-700:
// 246 051 rows, 3.9 MB; grid-20x20: 160 000 rows), in both reply forms: the
// sweep is a few milliseconds of each op, the rest is delivery. Each has a
// /socket twin that sends the same request over loopback to a server whose
// connections count their Write calls, and reads the whole reply: it
// reports writes/op, which the in-process row, writing to a sink that keeps
// nothing, cannot see. The last two are the label-pairs class of
// short-reads on scalefree-20000, two thirds of that workload's daemon CPU:
// `b b b` (three nodes in four have no b edge to start on, ~1 200 rows) and
// cypher `-[:b]->-[:a]->` (the same idle sources, ~44 000 rows).
func BenchmarkServedPairs(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	if err := s.LoadNamed("path-700", "grid-20x20", "scalefree-20000"); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	const big, labelPairs = 1 << 20, 16 << 10
	for _, c := range []struct {
		name, body string
		ndjson     bool
		atLeast    int64
	}{
		{"path-700/buffered", `{"graph":"path-700","query":"a*"}`, false, big},
		{"path-700/ndjson", `{"graph":"path-700","query":"a*"}`, true, big},
		{"grid-20x20/buffered", `{"graph":"grid-20x20","query":"a*"}`, false, big},
		{"grid-20x20/ndjson", `{"graph":"grid-20x20","query":"a*"}`, true, big},
		{"scalefree-20000/b b b", `{"graph":"scalefree-20000","query":"b b b"}`, false, labelPairs},
		{"scalefree-20000/cypher -[:b]->-[:a]->", `{"graph":"scalefree-20000","lang":"cypher","query":"-[:b]->-[:a]->"}`, false, labelPairs},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(c.body))
				if c.ndjson {
					req.Header.Set("Accept", "application/x-ndjson")
				}
				w := &discardResponse{h: http.Header{}}
				h.ServeHTTP(w, req)
				if w.n < c.atLeast {
					b.Fatalf("reply of %d bytes", w.n)
				}
				b.SetBytes(w.n)
			}
		})
		if c.atLeast < big {
			continue
		}
		b.Run(c.name+"/socket", func(b *testing.B) {
			var writes atomic.Int64
			ts := httptest.NewUnstartedServer(h)
			ts.Listener = countingListener{ts.Listener, &writes}
			ts.Start()
			defer ts.Close()
			hc := ts.Client()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(c.body))
				if err != nil {
					b.Fatal(err)
				}
				if c.ndjson {
					req.Header.Set("Accept", "application/x-ndjson")
				}
				resp, err := hc.Do(req)
				if err != nil {
					b.Fatal(err)
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || n < c.atLeast {
					b.Fatalf("reply of %d bytes: %v", n, err)
				}
				b.SetBytes(n)
			}
			b.ReportMetric(float64(writes.Load())/float64(b.N), "writes/op")
		})
	}
}

// BenchmarkServedCRPQ is the CRPQ path as a callable layer: POST /v1/query
// through the handler in-process for the four texts of bench/'s
// cyclic-crpq workload on scalefree-800 (chain, triangle, four-cycle and
// the `a a` triangle) and for the anchored one- and two-hop reads that are
// the median op of short-reads, on scalefree-20000. Plans are warm: the
// loop measures sweeps, join and delivery, not compilation.
func BenchmarkServedCRPQ(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	if err := s.LoadNamed("scalefree-800", "scalefree-20000"); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	for _, c := range []struct{ name, graph, query string }{
		{"chain", "scalefree-800", "q(x,y,z,w) :- b(x,y), a(y,z), b(z,w)"},
		{"triangle", "scalefree-800", "q(x,y,z) :- a(x,y), a(y,z), a(z,x)"},
		{"four-cycle", "scalefree-800", "q(x,y,z,w) :- a(x,y), a(y,z), a(z,w), b(w,x)"},
		{"triangle-aa", "scalefree-800", "q(x,y,z) :- a a(x,y), a(y,z), a(z,x)"},
		{"one-hop", "scalefree-20000", "q(y) :- a(@n100, y)"},
		{"two-hop", "scalefree-20000", "q(y) :- a a(@n100, y)"},
	} {
		b.Run(c.name, func(b *testing.B) {
			body := `{"graph":"` + c.graph + `","query":"` + c.query + `"}`
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := &discardResponse{h: http.Header{}}
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
				if w.n < 64 {
					b.Fatalf("reply of %d bytes", w.n)
				}
			}
		})
	}
}

// BenchmarkServedShortest is the anchored shortest-path query as a callable
// layer: POST /v1/query through the handler in-process, plan warm. The
// first two rows are the shortest op of bench/'s short-reads — `a*` on
// scalefree-20000 to a target five hops away, with the `limit: 1` the
// workload sends and without; the other two are the 4 096 shortest paths of
// figure5-12, all of them and the first three.
func BenchmarkServedShortest(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	if err := s.LoadNamed("scalefree-20000", "figure5-12"); err != nil {
		b.Fatal(err)
	}
	g, err := gen.Named("scalefree-20000")
	if err != nil {
		b.Fatal(err)
	}
	// The first node five a-edges from n100, by plain BFS.
	la, _ := g.LabelID("a")
	dist := map[int]int{g.MustNode("n100"): 0}
	far := ""
	for queue := []int{g.MustNode("n100")}; far == "" && len(queue) > 0; queue = queue[1:] {
		for _, ei := range g.OutWithLabel(queue[0], la) {
			w := g.EdgeTgt(ei)
			if _, seen := dist[w]; seen {
				continue
			}
			if dist[w] = dist[queue[0]] + 1; dist[w] == 5 {
				far = string(g.NodeID(w))
				break
			}
			queue = append(queue, w)
		}
	}
	if far == "" {
		b.Fatal("nothing five hops from n100")
	}
	h := s.Handler()
	for _, c := range []struct{ name, body string }{
		{"scalefree-20000/5-hops/limit-1", `{"graph":"scalefree-20000","query":"a*","from":"n100","to":"` + far + `","mode":"shortest","limit":1}`},
		{"scalefree-20000/5-hops/all", `{"graph":"scalefree-20000","query":"a*","from":"n100","to":"` + far + `","mode":"shortest"}`},
		{"figure5-12/all", `{"graph":"figure5-12","query":"(a^z)*","from":"s","to":"t","mode":"shortest"}`},
		{"figure5-12/limit-3", `{"graph":"figure5-12","query":"(a^z)*","from":"s","to":"t","mode":"shortest","limit":3}`},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := &discardResponse{h: http.Header{}}
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(c.body)))
				if w.n < 64 {
					b.Fatalf("reply of %d bytes", w.n)
				}
			}
		})
	}
}

// batchKeeper is a core.BatchSink that keeps the batches it is handed,
// unencoded.
type batchKeeper struct{ batches []core.RowBatch }

func (k *batchKeeper) Begin(string, []string) error { return nil }
func (k *batchKeeper) Row(any) error                { return nil }
func (k *batchKeeper) Batch(b core.RowBatch) (int, time.Duration, error) {
	k.batches = append(k.batches, b)
	return b.Len(), 0, nil
}

// BenchmarkEncodePairs is the row encoder alone: the pair batches of
// path-700 `a*` (246 051 rows), as the kernel's all-sources driver hands
// them over, appended to one reused buffer as NDJSON rows, in ns/row. The
// path-700 row has the catalog's names (`"v123"`: every literal and row
// prefix fits one 16-byte word); the 36-byte-ids row is the same path with
// 36-byte names, so literals and prefixes pass one word and are copied.
func BenchmarkEncodePairs(b *testing.B) {
	long := graph.NewBuilder()
	id := func(i int) graph.NodeID { return graph.NodeID(fmt.Sprintf("%08d-0000-4000-8000-%012d", i, i)) }
	for i := 0; i <= 700; i++ {
		long.AddNode(id(i), "", nil)
	}
	for i := 1; i <= 700; i++ {
		long.AddEdge(graph.EdgeID(fmt.Sprint("e", i)), "a", id(i-1), id(i), nil)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path-700", gen.APath(700, "a")},
		{"path-700/36-byte-ids", long.MustBuild()},
	} {
		b.Run(c.name, func(b *testing.B) {
			var k batchKeeper
			if _, err := core.New(c.g).QueryStream(context.Background(), core.Request{Query: "a*"}, &k); err != nil {
				b.Fatal(err)
			}
			rows := 0
			for _, rb := range k.batches {
				rows += rb.Len()
			}
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for _, rb := range k.batches {
					buf, _ = rb.AppendJSON(buf, 0, rb.Len(), '\n', math.MaxInt)
				}
				b.SetBytes(int64(len(buf)))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// BenchmarkReadAfterCommit is what a commit costs the next read, as a
// callable layer: each iteration commits one batch of the shape bench/'s
// mixed-rw writer sends — 32 ops, 16 edges added under w, 8 of its own
// removed, 8 node properties set — untimed, and then times one POST
// /v1/query through the handler in-process against the revision the commit
// made, where every plan is cold. No read uses w, so everything the plan
// derives from the graph is as it was: `b b b` plans from statistics and
// sweeps b's neighbor table, the one-hop CRPQ — the median op of mixed-rw —
// compiles onto a's. Compactions run at the default threshold, every 128
// commits, untimed; the reads after one are on a chain that has bought
// nothing yet.
func BenchmarkReadAfterCommit(b *testing.B) {
	for _, c := range []struct{ name, query string }{
		{"label-pairs", "b b b"},
		{"one-hop", "q(y) :- a(@n100, y)"},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := New(Config{Mutable: true})
			defer s.Close()
			if _, err := s.register("g", gen.ScaleFree(20000, 4, 1), false, true); err != nil {
				b.Fatal(err)
			}
			h := s.Handler()
			post := func(path, body string) *discardResponse {
				w := &discardResponse{h: http.Header{}}
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
				return w
			}
			next, live := 0, []int(nil)
			batch := func() string {
				var ops []string
				for i := 0; i < 16; i++ {
					ops = append(ops, fmt.Sprintf(`{"op":"add_edge","id":"w%d","label":"w","src":"n%d","tgt":"n%d"}`,
						next, next*7919%20000, next*104729%20000))
					live = append(live, next)
					next++
				}
				for i := 0; i < 8; i++ {
					ops = append(ops, fmt.Sprintf(`{"op":"remove_edge","id":"w%d"}`, live[0]))
					live = live[1:]
				}
				for i := 0; i < 8; i++ {
					ops = append(ops, fmt.Sprintf(`{"op":"set_node_prop","id":"n%d","prop":"touched","value":{"kind":"int","int":%d}}`,
						(next+i)*31%20000, next))
				}
				return `{"ops":[` + strings.Join(ops, ",") + `]}`
			}
			query := `{"graph":"g","query":"` + c.query + `"}`
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if w := post("/v1/graphs/g/mutate", batch()); w.n < 32 {
					b.Fatalf("mutate reply of %d bytes", w.n)
				}
				s.Close() // let a compaction the commit set off finish untimed
				b.StartTimer()
				if w := post("/v1/query", query); w.n < 64 {
					b.Fatalf("reply of %d bytes", w.n)
				}
			}
		})
	}
}
