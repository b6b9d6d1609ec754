package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"graphquery/internal/graph"
	"graphquery/internal/server"
)

// sample is one completed, verified query op as the client saw it.
type sample struct {
	latency   time.Duration // request sent to last body byte read
	firstByte time.Duration // request sent to first body byte read
	overhead  time.Duration // latency minus the reply's own elapsed_ms
	rows      int
	slice     int // index of the traffic slice it completed in
}

// reader is one closed-loop client: one keep-alive connection's worth of
// traffic, one outstanding query at a time.
type reader struct {
	t    *target
	buf  []byte // reply body, reused across ops
	full bool   // verify every row, not only the count
}

// do sends o and verifies the reply. An error is a failed op: transport
// error, non-200 status, or a wrong answer.
func (r *reader) do(ctx context.Context, o *op) (sample, error) {
	var s sample
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.t.base+"/v1/query", bytes.NewReader(o.body))
	if err != nil {
		return s, err
	}
	req.Header.Set("Content-Type", "application/json")
	if o.stream {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	sent := time.Now()
	resp, err := r.t.hc.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	r.buf = r.buf[:0]
	for {
		if len(r.buf) == cap(r.buf) {
			r.buf = append(r.buf, 0)[:len(r.buf)]
		}
		n, err := resp.Body.Read(r.buf[len(r.buf):cap(r.buf)])
		if n > 0 && len(r.buf) == 0 {
			s.firstByte = time.Since(sent)
		}
		r.buf = r.buf[:len(r.buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return s, err
		}
	}
	s.latency = time.Since(sent)
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("%s: status %d: %s", o, resp.StatusCode, bytes.TrimSpace(r.buf))
	}
	tail, err := checkReply(o, r.buf, r.full)
	if err != nil {
		return s, err
	}
	s.rows = tail.count
	s.overhead = s.latency - time.Duration(tail.elapsedMS*float64(time.Millisecond))
	return s, nil
}

// slice is one stretch of traffic between two timings of the reference
// kernel: what each client and both processes spent in it, and the host's
// pace while it ran.
type slice struct {
	active    []time.Duration // per client: slice start to its last reply
	daemonCPU float64         // seconds of daemon utime+stime in the slice
	selfCPU   float64         // the same for this process
	pace      float64         // mean of the reference timings either side
}

// traffic is what one phase (warm-up, or the measured window) did.
type traffic struct {
	samples   [][]sample // per client, each sample knowing its slice
	slices    []slice
	commits   []commit // the writer's, of this phase only
	attempted int
	failed    int
	firstErr  error
}

// runTraffic drives w's cycle from its closed-loop clients for d, in slices
// of cfg.slice with one timing of the reference kernel before each and one
// after the last; client c starts at offset c·cycleLen/n. A client finishes
// the op it has in flight when its slice ends, and the next slice starts
// once every client has; wr, if any, commits on its open-loop schedule
// inside the slices only, so the reference kernel never runs beside load.
// The writer's interval is paced like every other time: a fixed wall-clock
// rate would weigh more on a slow host — each commit costs the daemon a
// commit and a cold plan — and the reads would lose more than the pace says
// (1.6 times as much, measured, before the interval was paced).
func runTraffic(ctx context.Context, cfg config, ref *reference, t *target, w *workload, wr *writer, d time.Duration) (*traffic, error) {
	n := w.readers
	tr := &traffic{samples: make([][]sample, n)}
	readers := make([]*reader, n)
	next := make([]int, n)
	for c := range readers {
		readers[c] = &reader{t: t, buf: make([]byte, 0, 64<<10)}
		next[c] = c * cycleLen / n
	}
	var mu sync.Mutex // attempted, failed, firstErr
	firstCommit := 0
	if wr != nil {
		firstCommit = len(wr.commits)
	}
	deadline := time.Now().Add(d)
	before := ref.pace()
	for time.Now().Before(deadline) && ctx.Err() == nil {
		k := len(tr.slices)
		sl := slice{active: make([]time.Duration, n)}
		daemon0, self0, err := cpuTimes(t.pid)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		end := start.Add(cfg.slice)
		if end.After(deadline) {
			end = deadline
		}
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(end) && ctx.Err() == nil {
					o := w.ops[w.cycle[next[c]%cycleLen]]
					next[c]++
					s, err := readers[c].do(ctx, o)
					mu.Lock()
					tr.attempted++
					if err != nil {
						tr.failed++
						if tr.firstErr == nil {
							tr.firstErr = err
						}
					}
					mu.Unlock()
					if err == nil {
						s.slice = k
						tr.samples[c] = append(tr.samples[c], s)
					}
				}
				sl.active[c] = time.Since(start)
			}()
		}
		if wr != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wr.run(ctx, k, start, end, time.Duration(float64(writeInterval)*before))
			}()
		}
		wg.Wait()
		daemon1, self1, err := cpuTimes(t.pid)
		if err != nil {
			return nil, err
		}
		after := ref.pace()
		sl.daemonCPU, sl.selfCPU, sl.pace = daemon1-daemon0, self1-self0, (before+after)/2
		tr.slices = append(tr.slices, sl)
		before = after
	}
	if wr != nil {
		tr.commits = wr.commits[firstCommit:]
	}
	return tr, ctx.Err()
}

// cpuTimes reads the utime+stime of the daemon and of this process; zeros
// for an in-process target, which has no process of its own to account.
func cpuTimes(pid int) (daemon, self float64, err error) {
	if pid == 0 {
		return 0, 0, nil
	}
	if daemon, err = procCPU(pid); err != nil {
		return 0, 0, err
	}
	self, err = procCPU(0)
	return daemon, self, err
}

// Writer shape (fixed by the issue): 20 batches a second of 32 ops — 16
// add_edge, 8 remove_edge of edges the writer added earlier, 8
// set_node_prop.
const (
	writeInterval = 50 * time.Millisecond // at pace 1
	batchAdds     = 16
	batchRemoves  = 8
	batchProps    = 8
	// writerLabel keeps the writer's edges out of every read query (which
	// use a and b only), so each measured reply stays checkable against the
	// oracle while the reads still run on overlays, against cold plans and
	// beside compactions.
	writerLabel = "w"
)

// commit is one batch the writer sent, timed from its due time.
type commit struct {
	slice   int // index of the traffic slice it was due in
	due     time.Time
	late    time.Duration // due time to request sent
	latency time.Duration // due time to reply read
	err     error
}

// writer is the open-loop mutation client of mixed-rw. Batches are a pure
// function of the seed; every acknowledged batch is kept so the model can
// replay it.
type writer struct {
	t     *target
	graph string
	nodes []string
	rng   *rand.Rand
	live  []string // IDs of writer edges not yet removed
	next  int      // next edge number

	commits []commit
	applied [][]graph.Mutation
}

func newWriter(t *target, bg benchGraph, seed int64) *writer {
	wr := &writer{t: t, graph: bg.name, rng: rand.New(rand.NewSource(seed ^ 0x77726974))}
	for i := 0; i < bg.g.NumNodes(); i++ {
		wr.nodes = append(wr.nodes, string(bg.g.Node(i).ID))
	}
	return wr
}

func (wr *writer) node() string { return wr.nodes[wr.rng.Intn(len(wr.nodes))] }

// nextBatch draws the next batch in both its wire and its model form.
func (wr *writer) nextBatch(k int) ([]server.MutationJSON, []graph.Mutation) {
	var wire []server.MutationJSON
	var muts []graph.Mutation
	for i := 0; i < batchAdds; i++ {
		id := "w" + strconv.Itoa(wr.next)
		wr.next++
		src, tgt := wr.node(), wr.node()
		wire = append(wire, server.MutationJSON{Op: "add_edge", ID: id, Label: writerLabel, Src: src, Tgt: tgt})
		muts = append(muts, graph.Mutation{Op: graph.MutAddEdge, ID: id, Label: writerLabel, Src: src, Tgt: tgt})
		wr.live = append(wr.live, id)
	}
	for i := 0; i < batchRemoves; i++ {
		j := wr.rng.Intn(len(wr.live))
		id := wr.live[j]
		wr.live[j] = wr.live[len(wr.live)-1]
		wr.live = wr.live[:len(wr.live)-1]
		wire = append(wire, server.MutationJSON{Op: "remove_edge", ID: id})
		muts = append(muts, graph.Mutation{Op: graph.MutRemoveEdge, ID: id})
	}
	for i := 0; i < batchProps; i++ {
		id := wr.node()
		wire = append(wire, server.MutationJSON{Op: "set_node_prop", ID: id, Prop: "touched",
			Value: &graph.ValueJSON{Kind: "int", Int: int64(k)}})
		muts = append(muts, graph.Mutation{Op: graph.MutSetNodeProp, ID: id, Prop: "touched", Value: graph.Int(int64(k))})
	}
	return wire, muts
}

// run commits one batch every interval from start until end, as slice k of
// the traffic. The schedule is open-loop: a slow commit delays the sends
// behind it, and each commit is timed from when it was due, so the wait a
// stall imposes is counted.
func (wr *writer) run(ctx context.Context, k int, start, end time.Time, interval time.Duration) {
	for due := start; due.Before(end); due = due.Add(interval) {
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Until(due)):
		}
		wire, muts := wr.nextBatch(len(wr.commits))
		body := mustJSON(server.MutateRequest{Ops: wire})
		c := commit{slice: k, due: due, late: time.Since(due)}
		// The commit is sent without ctx: an acknowledged batch must reach
		// the model, so the writer only stops between batches.
		_, c.err = wr.t.post(context.Background(), "/v1/graphs/"+wr.graph+"/mutate", body, http.StatusOK)
		c.latency = time.Since(due)
		wr.commits = append(wr.commits, c)
		if c.err == nil {
			wr.applied = append(wr.applied, muts)
		}
	}
}

// model replays every acknowledged batch over g through graph.Apply.
func (wr *writer) model(g *graph.Graph) (*graph.Graph, error) {
	for _, batch := range wr.applied {
		ng, err := g.Apply(batch)
		if err != nil {
			return nil, err
		}
		g = ng
	}
	return g, nil
}
