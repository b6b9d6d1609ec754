// Command gqd ("graph query driver") is an interactive shell and one-shot
// runner for the query languages implemented in this repository: RPQs,
// ℓ-RPQs, dl-RPQs, and (dl-)CRPQs, plus automaton inspection and PMR
// construction.
//
// Usage:
//
//	gqd -graph bank.json                          # interactive shell
//	gqd -graph bank.json -q 'Transfer*'           # all endpoint pairs
//	gqd -graph bank.json -q '(Transfer^z)+' -from a3 -to a5 -mode shortest
//	gqd -graph bank.json -q 'q(x,y) :- Transfer(x,y), Transfer(y,x)'
//	gqd -builtin bank-property -q '() [Transfer][amount < 4500000] ()' -from a3 -to a5
//
// Built-in graphs (-builtin): bank (Figure 2), bank-property (Figure 3),
// figure5-N, clique-N, social-N.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"graphquery/internal/core"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/obs"
	"graphquery/internal/pg"
)

func main() {
	graphPath := flag.String("graph", "", "path to a graph JSON file")
	nodesCSV := flag.String("nodes", "", "path to a nodes CSV (id,label[,props…]); requires -edges")
	edgesCSV := flag.String("edges", "", "path to an edges CSV (id,label,src,tgt[,props…])")
	builtin := flag.String("builtin", "", "built-in graph: bank, bank-property, figure5-N, clique-N, social-N")
	query := flag.String("q", "", "query (RPQ, ℓ-RPQ, dl-RPQ, or CRPQ); omit for interactive mode")
	from := flag.String("from", "", "source node (path queries)")
	to := flag.String("to", "", "target node (path queries)")
	modeStr := flag.String("mode", "all", "path mode: all, shortest, simple, trail")
	maxLen := flag.Int("maxlen", 16, "bound on path length for mode all")
	limit := flag.Int("limit", 100, "bound on number of results")
	programPath := flag.String("program", "", "path to a nested-CRPQ program file (regular queries)")
	flag.BoolVar(&traceQueries, "trace", false, "print the query plan and evaluation span timings to stderr")
	flag.BoolVar(&analyzeQueries, "analyze", false, "run in EXPLAIN ANALYZE mode: print the annotated plan tree (estimate vs actual, q-errors, sweep telemetry) to stderr")
	flag.Parse()

	g, err := loadGraph(*graphPath, *nodesCSV, *edgesCSV, *builtin)
	if err != nil {
		fatal(err)
	}
	eng := core.New(g)
	eng.MaxLen = *maxLen
	eng.Limit = *limit

	if *programPath != "" {
		src, err := os.ReadFile(*programPath)
		if err != nil {
			fatal(err)
		}
		res, err := eng.ProgramRows(string(src))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n%d row(s)\n", res.Format(g), len(res.Rows))
		return
	}
	if *query != "" {
		// Ctrl-C cancels the running query via context rather than killing
		// the process mid-write.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		err := runOnce(ctx, eng, *query, *from, *to, *modeStr)
		stop()
		if err != nil {
			fatal(err)
		}
		return
	}
	repl(eng)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gqd:", err)
	os.Exit(1)
}

// traceQueries mirrors the -trace flag: runOnce prints each query's plan
// line and span timings to traceOut (stderr, so piped result output stays
// clean) — on the error and timeout paths too, which is exactly when an
// operator needs to see where the time went. Tests redirect traceOut.
var (
	traceQueries bool
	traceOut     io.Writer = os.Stderr

	// analyzeQueries mirrors the -analyze flag: runOnce evaluates with
	// Request.Analyze set and prints the annotated plan tree — per-node
	// estimate vs actual with q-errors, plus the kernel's per-level sweep
	// telemetry — to traceOut, following the -trace convention.
	analyzeQueries bool
)

// printAnalyze renders the annotated plan tree as indented JSON on
// traceOut. JSON rather than a bespoke rendering: the tree is exactly what
// POST /v1/query {"analyze":true} returns, so the two surfaces stay
// comparable and scripts can diff them.
func printAnalyze(ap *core.AnnotatedPlan) {
	b, err := json.MarshalIndent(ap, "", "  ")
	if err != nil {
		return
	}
	fmt.Fprintf(traceOut, "analyze: %s\n", b)
}

// printTrace renders the plan line and spans recorded on tr. The trace is
// caller-supplied to QueryCtx, so it carries the spans of errored queries
// (timeout, exhausted budget, interrupt) that never produced a Response.
func printTrace(tr *obs.Trace) {
	if plan := tr.Attr("plan"); plan != "" {
		fmt.Fprintf(traceOut, "plan:  %s\n", plan)
	}
	if spans := tr.Spans(); len(spans) > 0 {
		fmt.Fprintf(traceOut, "spans: %s\n", obs.SpansString(spans))
	}
}

func loadGraph(path, nodesCSV, edgesCSV, builtin string) (*graph.Graph, error) {
	switch {
	case nodesCSV != "" || edgesCSV != "":
		if nodesCSV == "" || edgesCSV == "" {
			return nil, fmt.Errorf("-nodes and -edges must be given together")
		}
		nf, err := os.Open(nodesCSV)
		if err != nil {
			return nil, err
		}
		defer nf.Close()
		ef, err := os.Open(edgesCSV)
		if err != nil {
			return nil, err
		}
		defer ef.Close()
		return graph.ReadCSV(nf, ef)
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadJSON(f)
	case builtin == "":
		return gen.BankEdgeLabeled(), nil
	default:
		return gen.Named(builtin)
	}
}

func runOnce(ctx context.Context, eng *core.Engine, query, from, to, modeStr string) error {
	g := eng.Graph()
	mode := eval.All
	if modeStr != "" {
		var err error
		if mode, err = eval.ParseMode(modeStr); err != nil {
			return err
		}
	}
	tr := obs.NewTrace()
	if traceQueries {
		// Deferred so the plan and spans print on every exit path —
		// success, error, and interrupt alike.
		defer printTrace(tr)
	}
	resp, err := eng.QueryCtx(ctx, core.Request{
		Query:   query,
		From:    graph.NodeID(from),
		To:      graph.NodeID(to),
		Mode:    mode,
		Trace:   tr,
		Analyze: analyzeQueries,
	})
	if err != nil {
		if errors.Is(err, pg.ErrCanceled) {
			return errors.New("canceled (interrupt received before the query finished)")
		}
		return err
	}
	if resp.Analyze != nil {
		printAnalyze(resp.Analyze)
	}
	switch resp.Kind {
	case "rows":
		fmt.Printf("%s\n%d row(s)\n", resp.Rows.Format(g), len(resp.Rows.Rows))
	case "pairs":
		for _, pr := range resp.Pairs {
			fmt.Printf("(%s, %s)\n", pr[0], pr[1])
		}
		fmt.Printf("%d pair(s)\n", len(resp.Pairs))
	case "paths":
		for _, r := range resp.Paths {
			fmt.Println(r.Format(g))
		}
		fmt.Printf("%d result(s)\n", len(resp.Paths))
	}
	return nil
}

// interruptible runs one query under a context canceled by Ctrl-C, then
// restores the default signal disposition so Ctrl-C at the prompt still
// kills the shell.
func interruptible(eng *core.Engine, query, from, to, modeStr string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	return runOnce(ctx, eng, query, from, to, modeStr)
}

const replHelp = `commands:
  <query>                          evaluate (RPQ pairs / CRPQ rows)
  paths <mode> <src> <dst> <query> enumerate paths under a mode
  explain <rpq>                    show automaton statistics
  pmr <src> <dst> <rpq>            build a path multiset representation
  twoway <2rpq>                    two-way RPQ pairs (inverse atoms: ~a)
  estimate <rpq>                   cardinality estimate vs actual
  gql <pattern>                    GQL ASCII-art pattern matching
  nodes | edges                    list graph elements
  help | quit
`

func repl(eng *core.Engine) {
	g := eng.Graph()
	fmt.Printf("gqd: %d nodes, %d edges. Type 'help' for commands.\n", g.NumNodes(), g.NumEdges())
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("gqd> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "quit", "exit":
			return
		case "help":
			fmt.Print(replHelp)
		case "nodes":
			for i := 0; i < g.NumNodes(); i++ {
				n := g.Node(i)
				fmt.Printf("  %s %s\n", n.ID, n.Label)
			}
		case "edges":
			for i := 0; i < g.NumEdges(); i++ {
				e := g.Edge(i)
				fmt.Printf("  %s: %s --%s--> %s\n", e.ID, g.Node(e.Src).ID, e.Label, g.Node(e.Tgt).ID)
			}
		case "twoway":
			q := strings.TrimSpace(strings.TrimPrefix(line, "twoway"))
			pairs, err := eng.TwoWayPairs(q)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, pr := range pairs {
				fmt.Printf("(%s, %s)\n", pr[0], pr[1])
			}
			fmt.Printf("%d pair(s)\n", len(pairs))
		case "estimate":
			q := strings.TrimSpace(strings.TrimPrefix(line, "estimate"))
			est, actual, err := eng.Estimate(q)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("estimated %.1f answer pairs, actual %d\n", est, actual)
		case "gql":
			q := strings.TrimSpace(strings.TrimPrefix(line, "gql"))
			lines, err := eng.GQLMatch(q)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, l := range lines {
				fmt.Println(l)
			}
			fmt.Printf("%d match(es)\n", len(lines))
		case "explain":
			out, err := eng.Explain(strings.TrimSpace(strings.TrimPrefix(line, "explain")))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(out)
		case "pmr":
			if len(fields) < 4 {
				fmt.Println("usage: pmr <src> <dst> <rpq>")
				continue
			}
			q := strings.Join(fields[3:], " ")
			r, err := eng.Representation(q, graph.NodeID(fields[1]), graph.NodeID(fields[2]), false)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			count, infinite := r.Cardinality()
			if infinite {
				fmt.Printf("PMR: size %d, infinitely many paths; first 5:\n", r.Size())
			} else {
				fmt.Printf("PMR: size %d, %s path(s); first 5:\n", r.Size(), count)
			}
			paths, err := r.Enumerate(5, nil)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, p := range paths {
				fmt.Println(" ", p.Format(g))
			}
		case "paths":
			if len(fields) < 5 {
				fmt.Println("usage: paths <mode> <src> <dst> <query>")
				continue
			}
			q := strings.Join(fields[4:], " ")
			if err := interruptible(eng, q, fields[2], fields[3], fields[1]); err != nil {
				fmt.Println("error:", err)
			}
		default:
			if err := interruptible(eng, line, "", "", "all"); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}
