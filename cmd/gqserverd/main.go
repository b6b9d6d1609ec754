// Command gqserverd serves graph queries over HTTP: named graphs from the
// built-in catalog (or JSON files), evaluated by the core engine with
// per-query deadlines, resource budgets, and admission control.
//
// Usage:
//
//	gqserverd -graphs bank,figure5-8                  # serve two catalog graphs
//	gqserverd -addr :0 -graphs bank                   # pick a free port (printed)
//	gqserverd -graphs bank -default-timeout 2s -max-states 50000000
//
//	curl -s localhost:8080/v1/graphs
//	curl -s localhost:8080/v1/query -d '{"graph":"bank","query":"Transfer*"}'
//	curl -s localhost:8080/v1/statz
//	curl -s localhost:8080/metrics                    # Prometheus text format
//
// Streaming: POST /v1/query with Accept: application/x-ndjson (or
// "stream": true in the body) delivers results as chunked NDJSON — a
// header line, one row per line, and a final trailer record carrying the
// outcome and counts — so a result set never has to fit in server memory
// and a slow client throttles evaluation (backpressure). Chunks are cut by
// bytes — the first at 4 KiB, each later one at twice the one before, up to
// 64 KiB; -stream-buffer sets the chunks in flight.
// A "cursor" field pages the stream: "start" plus a limit yields page one
// and a next_cursor token in the trailer.
//
//	curl -sN localhost:8080/v1/query -H 'Accept: application/x-ndjson' \
//	    -d '{"graph":"bank","query":"Transfer*"}'
//	curl -sN localhost:8080/v1/query -H 'Accept: application/x-ndjson' \
//	    -d '{"graph":"bank","query":"Transfer*","limit":100,"cursor":"start"}'
//
// Live graph store: -mutable enables the write surface — POST /v1/graphs
// bulk-loads a graph (JSON or CSV payload, bounded by -max-load-bytes),
// POST /v1/graphs/{name}/mutate applies one atomic mutation batch (optionally
// preconditioned on if_version), DELETE /v1/graphs/{name} drops a graph, and
// GET /v1/graphs/{name}/export streams it back out. Writes land as deltas
// over the immutable base CSR; a background compactor folds the delta log
// into a fresh CSR past -compact-threshold ops. In-flight queries keep the
// snapshot they started on (MVCC); graphs given via -graphs stay read-only.
//
// Observability: -slow-query 100ms logs every query at or over the
// threshold as one structured WARN record (query, graph, plan, span
// timings, budget consumption, outcome); -query-log query.jsonl writes the
// same record for EVERY admitted query as one JSONL line — the structured
// query event log, size-rotated at -query-log-max-bytes keeping
// -query-log-keep old files; -debug-addr 127.0.0.1:6060 serves
// net/http/pprof on a separate listener. "analyze": true on POST /v1/query
// returns the annotated plan tree (per-node estimate vs actual with
// q-errors, per-level sweep telemetry) and adds its root q-error to the
// gq_cardest_qerror histogram in /metrics.
//
// Live introspection: GET /v1/queries lists in-flight queries with their
// live progress (stage, product states, frontier), GET /v1/queries/recent
// the last completed ones, and POST /v1/queries/{id}/cancel kills a
// runaway query cooperatively — it ends with a "killed" outcome and no
// partial results, without restarting the daemon. Every /v1/query reply
// carries the query's ID in the X-Query-ID header.
//
// Graphs named like file paths (containing a slash or ending in .json) are
// loaded as graph JSON; everything else resolves through the catalog:
// bank, bank-property, figure5-N, clique-N, social-N, cycle-N, path-N,
// grid-WxH. SIGINT/SIGTERM trigger a graceful shutdown that drains
// in-flight queries up to -drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on http.DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/obs"
	"graphquery/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
	graphs := flag.String("graphs", "bank", "comma-separated graphs to serve: catalog names or graph JSON paths")
	maxConcurrent := flag.Int("max-concurrent", 16, "queries evaluating at once")
	maxQueue := flag.Int("max-queue", 64, "admissions waiting for a slot before 429s")
	defaultTimeout := flag.Duration("default-timeout", 30*time.Second, "per-query deadline when the request has none (0: none)")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested timeouts (0: uncapped)")
	maxStates := flag.Int64("max-states", 0, "default per-query product-state budget (0: unlimited)")
	maxRows := flag.Int64("max-rows", 0, "default per-query result-row budget (0: unlimited)")
	maxLen := flag.Int("maxlen", 16, "bound on path length for mode all")
	limit := flag.Int("limit", 0, "bound on returned paths/rows (0: unlimited)")
	parallelism := flag.Int("parallelism", 0, "worker goroutines per query (0: one per CPU)")
	drain := flag.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight queries")
	slowQuery := flag.Duration("slow-query", 0, "log queries slower than this as structured WARN records (0: off)")
	queryLog := flag.String("query-log", "", "append one JSONL record per admitted query to this file (empty: off)")
	queryLogMaxBytes := flag.Int64("query-log-max-bytes", 0, "rotate the query log when it would exceed this size (0: never)")
	queryLogKeep := flag.Int("query-log-keep", 3, "rotated query-log files retained (.1 newest)")
	recent := flag.Int("recent", 0, "completed queries kept for GET /v1/queries/recent (0: default 64)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty: off)")
	mutable := flag.Bool("mutable", false, "enable the write surface: POST /v1/graphs, mutate, delete")
	compactThreshold := flag.Int("compact-threshold", 0, "delta-log depth that triggers background compaction (0: default; negative: never)")
	maxLoadBytes := flag.Int64("max-load-bytes", 0, "largest POST /v1/graphs body accepted (0: default 32MiB)")
	streamBuffer := flag.Int("stream-buffer", 0, "chunks buffered between evaluation and a slow streaming client (0: default 4)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)

	var queryLogW io.Writer
	if *queryLog != "" {
		// The rotating writer is size-bounded when -query-log-max-bytes is
		// set and plain append-only otherwise (maxBytes 0 never rotates).
		// Each JSONL record is one Write, so rotation never tears a record.
		f, err := obs.NewRotatingWriter(*queryLog, *queryLogMaxBytes, *queryLogKeep)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		queryLogW = f
	}

	srv := server.New(server.Config{
		DefaultTimeout:   *defaultTimeout,
		MaxTimeout:       *maxTimeout,
		MaxConcurrent:    *maxConcurrent,
		MaxQueue:         *maxQueue,
		DefaultBudget:    eval.Budget{MaxStates: *maxStates, MaxRows: *maxRows},
		MaxLen:           *maxLen,
		Limit:            *limit,
		Parallelism:      *parallelism,
		SlowQuery:        *slowQuery,
		Logger:           logger,
		QueryLog:         queryLogW,
		Recent:           *recent,
		Mutable:          *mutable,
		CompactThreshold: *compactThreshold,
		MaxLoadBytes:     *maxLoadBytes,
		StreamBuffer:     *streamBuffer,
	})
	defer srv.Close()
	for _, name := range strings.Split(*graphs, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if err := load(srv, name); err != nil {
			fatal(err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Printed on stdout so scripts (and the smoke test) can scrape the
	// bound port when -addr :0 picked a random one.
	fmt.Printf("gqserverd: listening on http://%s (graphs: %s)\n",
		ln.Addr(), strings.Join(srv.GraphNames(), ", "))

	// The pprof surface lives on its own listener so profiling endpoints
	// are never reachable through the query port. http.DefaultServeMux
	// carries the net/http/pprof handlers via its import side effect.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("gqserverd: debug (pprof) on http://%s/debug/pprof/\n", dln.Addr())
		go func() {
			if err := http.Serve(dln, http.DefaultServeMux); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server failed", "err", err)
			}
		}()
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("gqserverd: shutting down, draining in-flight queries")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "gqserverd: drain incomplete:", err)
		hs.Close()
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Println("gqserverd: bye")
}

// load registers one graph: a path (slash or .json suffix) reads graph
// JSON and registers under the file's base name; anything else resolves
// through the built-in catalog.
func load(srv *server.Server, name string) error {
	if strings.ContainsRune(name, os.PathSeparator) || strings.HasSuffix(name, ".json") {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err := graph.ReadJSON(f)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		srv.Register(strings.TrimSuffix(filepath.Base(name), ".json"), g)
		return nil
	}
	return srv.LoadNamed(name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gqserverd:", err)
	os.Exit(1)
}
