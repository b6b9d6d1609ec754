// Command streamprobe is the serve_smoke.sh client for the streamed
// /v1/query surface — the checks curl cannot express: reading a stream
// deliberately slowly while sampling the server's heap (backpressure must
// bound memory to O(chunk), not O(result)), comparing streamed NDJSON rows
// byte-for-byte against the buffered response, and killing a stream
// mid-flight to verify the in-band error trailer.
//
// Modes (-mode):
//
//	identity   buffered result fields == concatenated NDJSON rows, byte-exact
//	           (any row-bearing kind: -lang / -from / -to / -doc pick it)
//	slowheap   drain a big stream slowly; fail if server HeapAlloc exceeds -max-heap
//	heapwatch  run a buffered query while sampling HeapAlloc; print the peak
//	killstream open a stream, read the header, cancel via the registry,
//	           require a "killed" error trailer
//
// Exit status 0 on success; diagnostics and the measured numbers go to
// stdout for the smoke log.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

func main() {
	mode := flag.String("mode", "", "identity | slowheap | heapwatch | killstream")
	base := flag.String("base", "", "server base URL (http://host:port)")
	debug := flag.String("debug", "", "debug (pprof) base URL, for heap sampling")
	graph := flag.String("graph", "bank", "graph to query")
	query := flag.String("query", "Transfer*", "query text")
	lang := flag.String("lang", "", "query language (default: auto-detect)")
	from := flag.String("from", "", "source anchor of a path query")
	to := flag.String("to", "", "target anchor of a path query")
	doc := flag.String("doc", "", "input document of a spanner query")
	maxHeap := flag.Int64("max-heap", 256<<20, "slowheap: fail if server HeapAlloc exceeds this")
	flag.Parse()
	raw, _ := json.Marshal(struct { // a struct of strings: cannot fail
		Graph string `json:"graph"`
		Query string `json:"query"`
		Lang  string `json:"lang,omitempty"`
		From  string `json:"from,omitempty"`
		To    string `json:"to,omitempty"`
		Doc   string `json:"doc,omitempty"`
	}{*graph, *query, *lang, *from, *to, *doc})
	body := string(raw)
	var err error
	switch *mode {
	case "identity":
		err = identity(*base, body)
	case "slowheap":
		err = slowheap(*base, *debug, body, *maxHeap)
	case "heapwatch":
		err = heapwatch(*base, *debug, body)
	case "killstream":
		err = killstream(*base, body)
	default:
		err = fmt.Errorf("unknown -mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamprobe:", err)
		os.Exit(1)
	}
}

func post(base, body string, ndjson bool) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/query", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ndjson {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	return http.DefaultClient.Do(req)
}

// readStream consumes one NDJSON response into (rows, trailer).
func readStream(resp *http.Response) ([]string, map[string]any, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return nil, nil, fmt.Errorf("stream status %d: %s", resp.StatusCode, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var rows []string
	var trailer map[string]any
	first := true
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
		case first:
			first = false // header
		case strings.HasPrefix(line, `{"trailer"`):
			var tl map[string]map[string]any
			if err := json.Unmarshal([]byte(line), &tl); err != nil {
				return nil, nil, fmt.Errorf("bad trailer %q: %w", line, err)
			}
			trailer = tl["trailer"]
		default:
			rows = append(rows, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if trailer == nil {
		return nil, nil, fmt.Errorf("stream ended without a trailer (%d rows)", len(rows))
	}
	return rows, trailer, nil
}

// identity cross-validates delivery paths: the streamed rows must be
// byte-identical to the buffered response's result-array elements.
func identity(base, body string) error {
	resp, err := post(base, body, false)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("buffered status %d: %s", resp.StatusCode, raw)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return err
	}
	var kind string
	if err := json.Unmarshal(m["kind"], &kind); err != nil {
		return err
	}
	field := map[string]string{
		"pairs": "pairs", "paths": "paths", "rows": "rows",
		"matches": "matches", "spans": "spans", "relation": "rows",
	}[kind]
	var want []json.RawMessage
	if f, ok := m[field]; ok {
		if err := json.Unmarshal(f, &want); err != nil {
			return err
		}
	}

	sresp, err := post(base, body, true)
	if err != nil {
		return err
	}
	rows, trailer, err := readStream(sresp)
	if err != nil {
		return err
	}
	if trailer["status"] != "ok" {
		return fmt.Errorf("trailer %v", trailer)
	}
	if len(rows) != len(want) || len(rows) == 0 {
		return fmt.Errorf("streamed %d rows, buffered %d; want the same non-zero count", len(rows), len(want))
	}
	for i := range rows {
		if rows[i] != string(want[i]) {
			return fmt.Errorf("row %d differs:\nstream:   %s\nbuffered: %s", i, rows[i], want[i])
		}
	}
	fmt.Printf("streamprobe: identity ok (%s, %d rows byte-identical)\n", kind, len(rows))
	return nil
}

// heapSampler polls the debug listener's /debug/pprof/heap?debug=1 for the
// "# HeapAlloc = N" line and tracks the maximum until stopped.
func heapSampler(debug string) (max *atomic.Int64, stop func()) {
	max = new(atomic.Int64)
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-done:
				return
			case <-time.After(30 * time.Millisecond):
			}
			resp, err := http.Get(debug + "/debug/pprof/heap?debug=1")
			if err != nil {
				continue
			}
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				line := sc.Text()
				if rest, ok := strings.CutPrefix(line, "# HeapAlloc = "); ok {
					if v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64); err == nil {
						for {
							cur := max.Load()
							if v <= cur || max.CompareAndSwap(cur, v) {
								break
							}
						}
					}
					break
				}
			}
			resp.Body.Close()
		}
	}()
	return max, func() { close(done); <-stopped }
}

// slowheap drains a large streamed result deliberately slowly (64 KiB
// then a pause, repeatedly) so evaluation runs far ahead of the client,
// and fails if the server's HeapAlloc ever exceeds maxHeap — the
// backpressure bound: memory O(chunk buffer), not O(result).
func slowheap(base, debug, body string, maxHeap int64) error {
	// Force a GC first so garbage from earlier requests doesn't linger in
	// HeapAlloc and get misattributed to this stream.
	if resp, err := http.Get(debug + "/debug/pprof/heap?gc=1"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	max, stop := heapSampler(debug)
	resp, err := post(base, body, true)
	if err != nil {
		stop()
		return err
	}
	start := time.Now()
	var total int64
	buf := make([]byte, 64<<10)
	var tail []byte
	slowUntil := 40 // first ~2.5 MiB read slowly, then drain at full speed
	for {
		n, rerr := io.ReadFull(resp.Body, buf)
		total += int64(n)
		if n > 0 {
			// Keep only the last 64 KiB so the trailer line survives the
			// drain without buffering the whole stream client-side.
			tail = append(tail, buf[:n]...)
			if len(tail) > 64<<10 {
				tail = append(tail[:0], tail[len(tail)-64<<10:]...)
			}
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		if rerr != nil {
			resp.Body.Close()
			stop()
			return rerr
		}
		if slowUntil > 0 {
			slowUntil--
			time.Sleep(50 * time.Millisecond)
		}
	}
	resp.Body.Close()
	stop()
	lines := strings.Split(strings.TrimSpace(string(tail)), "\n")
	last := lines[len(lines)-1]
	var tl map[string]map[string]any
	if err := json.Unmarshal([]byte(last), &tl); err != nil || tl["trailer"] == nil {
		return fmt.Errorf("stream did not end in a trailer: %q", last)
	}
	tr := tl["trailer"]
	if tr["status"] != "ok" {
		return fmt.Errorf("trailer %v", tr)
	}
	peak := max.Load()
	fmt.Printf("streamprobe: slowheap ok (%d MiB streamed in %.1fs, %v rows, server heap peak %d MiB)\n",
		total>>20, time.Since(start).Seconds(), tr["count"], peak>>20)
	if peak == 0 {
		return fmt.Errorf("heap sampler never saw a HeapAlloc line from %s", debug)
	}
	if peak > maxHeap {
		return fmt.Errorf("server HeapAlloc peaked at %d MiB, bound %d MiB: backpressure is not bounding memory",
			peak>>20, maxHeap>>20)
	}
	return nil
}

// heapwatch runs one buffered query while sampling HeapAlloc — the
// "before" column of the delivery-memory comparison. It only reports.
func heapwatch(base, debug, body string) error {
	max, stop := heapSampler(debug)
	resp, err := post(base, body, false)
	if err != nil {
		stop()
		return err
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("buffered status %d", resp.StatusCode)
	}
	stop()
	fmt.Printf("streamprobe: heapwatch (%d MiB buffered body, server heap peak %d MiB)\n",
		n>>20, max.Load()>>20)
	return nil
}

// killstream opens a stream, reads just the header (so the 200 and first
// chunk are on the wire), kills the query through the registry, and
// requires the stream to end with a well-formed "killed" error trailer.
func killstream(base, body string) error {
	resp, err := post(base, body, true)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Query-ID")
	if id == "" {
		return fmt.Errorf("no X-Query-ID header on the streamed response")
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	if _, err := br.ReadString('\n'); err != nil {
		return fmt.Errorf("reading stream header: %w", err)
	}
	cresp, err := http.Post(base+"/v1/queries/"+id+"/cancel", "application/json", nil)
	if err != nil {
		return err
	}
	craw, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		return fmt.Errorf("cancel status %d: %s", cresp.StatusCode, craw)
	}
	var rows int
	var last string
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if sc.Text() != "" {
			last = sc.Text()
			rows++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	var tl map[string]map[string]any
	if err := json.Unmarshal([]byte(last), &tl); err != nil || tl["trailer"] == nil {
		return fmt.Errorf("killed stream did not end in a trailer: %q", last)
	}
	tr := tl["trailer"]
	if tr["status"] != "error" || tr["code"] != "killed" {
		return fmt.Errorf("trailer %v, want killed", tr)
	}
	fmt.Printf("streamprobe: killstream ok (query %s, %d rows then killed trailer)\n", id, rows-1)
	return nil
}
