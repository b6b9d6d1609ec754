package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"graphquery/internal/core"
	"graphquery/internal/crpq"
	"graphquery/internal/cypherfrag"
	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/rpq"
	"graphquery/internal/server"
	"graphquery/internal/twoway"
)

// engineMaxLen mirrors gqserverd's default -maxlen.
const engineMaxLen = 16

// answer identifies a result set whatever order its rows arrive in: the
// row count and the wrapping sum of each row's FNV-1a hash.
type answer struct {
	count  int
	digest uint64
}

func (a *answer) add(fields ...string) {
	h := fnv.New64a()
	for _, f := range fields {
		h.Write([]byte(f))
		h.Write([]byte{0x1f})
	}
	a.count++
	a.digest += h.Sum64()
}

// expect computes o's answer over g in-process on the sequential,
// unplanned path of each evaluator — no engine, no planner, no cache — so
// a planner or server change cannot move the expectation with the result.
func expect(g *graph.Graph, o *op) (answer, error) {
	var a answer
	id := func(i int) string { return string(g.Node(i).ID) }
	pairs := func(prs [][2]int) {
		for _, pr := range prs {
			a.add(id(pr[0]), id(pr[1]))
		}
	}
	req := o.req
	switch {
	case req.From != "" || req.To != "":
		e, err := lrpq.Parse(req.Query)
		if err != nil {
			return a, err
		}
		mode, err := eval.ParseMode(req.Mode)
		if err != nil {
			return a, err
		}
		u, ok1 := g.NodeIndex(graph.NodeID(req.From))
		v, ok2 := g.NodeIndex(graph.NodeID(req.To))
		if !ok1 || !ok2 {
			return a, fmt.Errorf("unknown anchor in %s", o)
		}
		pbs, err := lrpq.EvalBetween(g, e, u, v, mode, lrpq.Options{MaxLen: engineMaxLen, Limit: req.Limit})
		if err != nil {
			return a, err
		}
		for _, pb := range pbs {
			a.add(core.PathResult{Path: pb.Path, Binding: pb.Binding}.Format(g))
		}
	case req.Lang == "cypher":
		p, err := cypherfrag.Parse(req.Query)
		if err != nil {
			return a, err
		}
		pairs(eval.PairsOpt(g, cypherfrag.Compile(p), eval.Options{Parallelism: 1}))
	case req.Lang == "2rpq":
		e, err := twoway.Parse(req.Query)
		if err != nil {
			return a, err
		}
		pairs(twoway.Pairs(g, e))
	case req.Lang != "":
		return a, fmt.Errorf("no oracle for lang %q", req.Lang)
	case core.Detect(req.Query) == core.KindCRPQ:
		q, err := crpq.Parse(req.Query)
		if err != nil {
			return a, err
		}
		res, err := crpq.Eval(g, q, crpq.Options{AtomMaxLen: engineMaxLen, Parallelism: 1})
		if err != nil {
			return a, err
		}
		for _, row := range res.Rows {
			fields := make([]string, len(row))
			for i, v := range row {
				fields[i] = v.Format(g)
			}
			a.add(fields...)
		}
	default:
		e, err := rpq.Parse(req.Query)
		if err != nil {
			return a, err
		}
		pairs(eval.PairsOpt(g, e, eval.Options{Parallelism: 1}))
	}
	return a, nil
}

// replyTail is what every reply is checked for, read from the last bytes
// of the body without decoding the rows.
type replyTail struct {
	count     int
	elapsedMS float64
}

// tailBytes bounds how far from the end the count and elapsed_ms fields of
// a buffered body or an NDJSON trailer can start.
const tailBytes = 256

// parseTail reads count and elapsed_ms from the end of a /v1/query reply.
// Both delivery forms put them after the last row: the buffered object
// ends `"count":N,...,"elapsed_ms":E}` and a stream ends with its trailer.
func parseTail(body []byte, stream bool) (replyTail, error) {
	tail := body
	if len(tail) > tailBytes {
		tail = tail[len(tail)-tailBytes:]
	}
	var t replyTail
	if stream {
		i := bytes.LastIndex(tail, []byte(`{"trailer":`))
		if i < 0 {
			return t, errors.New("stream ended without a trailer")
		}
		tail = tail[i:]
		if !bytes.Contains(tail, []byte(`"status":"ok"`)) {
			return t, fmt.Errorf("stream trailer not ok: %s", bytes.TrimSpace(tail))
		}
	}
	if _, err := fmt.Sscanf(after(tail, `"count":`), "%d", &t.count); err != nil {
		return t, fmt.Errorf("no count in reply tail %q", tail)
	}
	if _, err := fmt.Sscanf(after(tail, `"elapsed_ms":`), "%g", &t.elapsedMS); err != nil {
		return t, fmt.Errorf("no elapsed_ms in reply tail %q", tail)
	}
	return t, nil
}

// after returns what follows the last occurrence of key in b, or "".
func after(b []byte, key string) string {
	i := bytes.LastIndex(b, []byte(key))
	if i < 0 {
		return ""
	}
	return string(b[i+len(key):])
}

// decodeReply digests every row of a /v1/query reply body.
func decodeReply(body []byte, stream bool) (answer, error) {
	var a answer
	if stream {
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		first := true
		for sc.Scan() {
			line := sc.Bytes()
			switch {
			case first:
				first = false // header line
			case len(line) == 0 || line[0] == '{':
				// the trailer, checked by parseTail
			case line[0] == '"':
				var s string
				if err := json.Unmarshal(line, &s); err != nil {
					return a, err
				}
				a.add(s)
			default:
				var fields []string
				if err := json.Unmarshal(line, &fields); err != nil {
					return a, err
				}
				a.add(fields...)
			}
		}
		return a, sc.Err()
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return a, err
	}
	switch resp.Kind {
	case "pairs":
		for _, pr := range resp.Pairs {
			a.add(pr[0], pr[1])
		}
	case "paths":
		for _, p := range resp.Paths {
			a.add(p)
		}
	case "rows":
		for _, row := range resp.Rows {
			a.add(row...)
		}
	default:
		return a, fmt.Errorf("unexpected result kind %q", resp.Kind)
	}
	if a.count != resp.Count {
		return a, fmt.Errorf("reply says count %d but carries %d rows", resp.Count, a.count)
	}
	return a, nil
}

// checkReply verifies one reply against the op's expected answer: always
// the count in the tail, and with full set every row.
func checkReply(o *op, body []byte, full bool) (replyTail, error) {
	t, err := parseTail(body, o.stream)
	if err != nil {
		return t, err
	}
	if t.count != o.want.count {
		return t, fmt.Errorf("%s: count %d, want %d", o, t.count, o.want.count)
	}
	if full {
		got, err := decodeReply(body, o.stream)
		if err != nil {
			return t, fmt.Errorf("%s: %w", o, err)
		}
		if got != o.want {
			return t, fmt.Errorf("%s: rows differ from the oracle (count %d digest %x, want count %d digest %x)",
				o, got.count, got.digest, o.want.count, o.want.digest)
		}
	}
	return t, nil
}

// fillExpected computes every op's expected answer.
func (w *workload) fillExpected() error {
	byName := map[string]*graph.Graph{}
	for _, bg := range w.graphs {
		byName[bg.name] = bg.g
	}
	for _, o := range w.ops {
		a, err := expect(byName[o.req.Graph], o)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", o, err)
		}
		o.want = a
	}
	return nil
}

// describeOps summarises a workload's distinct ops per class for the
// human-readable report.
func (w *workload) describeOps() string {
	counts := map[string]int{}
	rows := map[string]int{}
	var order []string
	for _, id := range w.cycle {
		o := w.ops[id]
		if counts[o.class] == 0 {
			order = append(order, o.class)
		}
		counts[o.class]++
		rows[o.class] += o.want.count
	}
	parts := make([]string, len(order))
	for i, c := range order {
		parts[i] = fmt.Sprintf("%s %d/%d (%d rows/op)", c, counts[c], len(w.cycle), rows[c]/counts[c])
	}
	return strings.Join(parts, ", ")
}
