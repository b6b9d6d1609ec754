package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The reference kernel is a fixed piece of work, private to the benchmark,
// that is timed between the slices of every measured window. The sandbox
// the bounds were calibrated on runs the same code at speeds that differ by
// ±15% in stretches of ten to forty-five seconds (see README, "Why the
// clock is paced"), and a chunk of this kernel slows down and speeds up
// with the daemon's work: over 18 s windows their speeds correlate at
// 0.90–0.98 on every workload. Dividing a slice's times by how slow the
// kernel ran beside it takes the host's pace out of the result and leaves
// the program's.
//
// One chunk is the three kinds of work the daemon does most, a millisecond
// of each: a breadth-first sweep over a CSR graph with a bitset of visited
// nodes (the pg kernel's shape), building and probing a hash table of row
// lists (the crpq join's shape), and building and JSON-encoding a slice of
// rows (allocation, reflection and the garbage collector: the delivery
// path's shape). None calls into the repository, so no later change can
// move it.
const (
	refNodes  = 1 << 16
	refDegree = 8
	refVisits = 12000 // nodes expanded per sweep
	refSweeps = 1     // sweeps per chunk
	refJoin   = 16000 // rows hashed, and rows probed, per chunk
	refKeys   = 4096  // distinct join keys
	refRows   = 2000  // rows encoded per chunk
	refEncode = 4     // encodes per chunk
)

// refNominalMS is the time one chunk takes when the host runs at the speed
// the bounds were calibrated at: the median over the calibration runs on
// the two-core sandbox, both goroutines busy. A pace of 1.2 means the host
// was a fifth slower than that while the slice ran.
const refNominalMS = 3.8

// refWorker is one goroutine's private copy of the kernel's data.
type refWorker struct {
	adj   []int32 // refDegree targets per node
	seen  []uint64
	queue []int32
	src   int32
	times []float64 // chunk times of the current phase, ms
}

func newRefWorker(seed int64) *refWorker {
	rng := rand.New(rand.NewSource(seed))
	r := &refWorker{
		adj:   make([]int32, refNodes*refDegree),
		seen:  make([]uint64, refNodes/64),
		queue: make([]int32, 0, refVisits*refDegree+1),
	}
	for i := range r.adj {
		r.adj[i] = int32(rng.Intn(refNodes))
	}
	return r
}

// chunk does the kernel's fixed work once.
func (r *refWorker) chunk() {
	for s := 0; s < refSweeps; s++ {
		clear(r.seen)
		q := append(r.queue[:0], r.src)
		r.seen[r.src>>6] |= 1 << (r.src & 63)
		for h := 0; h < len(q) && h < refVisits; h++ {
			u := int(q[h])
			for _, v := range r.adj[u*refDegree : (u+1)*refDegree] {
				if r.seen[v>>6]&(1<<(v&63)) == 0 {
					r.seen[v>>6] |= 1 << (v & 63)
					q = append(q, v)
				}
			}
		}
		r.src = (r.src + 1) % refNodes
	}
	table := make(map[int32][]int32)
	for i, v := range r.adj[:refJoin] {
		table[v%refKeys] = append(table[v%refKeys], int32(i))
	}
	matches := 0
	for _, v := range r.adj[refJoin : 2*refJoin] {
		matches += len(table[v%refKeys])
	}
	if matches == 0 {
		panic("bench: reference kernel joined nothing")
	}
	for e := 0; e < refEncode; e++ {
		var rows [][2]int
		for i := 0; i < refRows; i++ {
			rows = append(rows, [2]int{i, i * 7})
		}
		if b, err := json.Marshal(rows); err != nil || len(b) == 0 {
			panic("bench: reference kernel could not encode its rows")
		}
	}
}

// reference times the kernel on as many goroutines as the benchmark has
// clients, which is how many cores the traffic keeps busy.
type reference struct {
	workers []*refWorker
	phase   time.Duration
}

func newReference(goroutines int, phase time.Duration) *reference {
	ref := &reference{phase: phase}
	for i := 0; i < goroutines; i++ {
		ref.workers = append(ref.workers, newRefWorker(int64(i)))
	}
	ref.pace() // the first timing pays for cold caches and a growing heap
	return ref
}

// pace runs chunks on every goroutine for one phase and returns the median
// chunk time over the nominal one: above 1 the host is running slow. The
// median shrugs off a chunk that was interrupted.
func (ref *reference) pace() float64 {
	var wg sync.WaitGroup
	end := time.Now().Add(ref.phase)
	for _, r := range ref.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.times = r.times[:0]
			for done := false; !done; {
				start := time.Now()
				r.chunk()
				now := time.Now()
				r.times = append(r.times, ms(now.Sub(start)))
				done = !now.Before(end)
			}
		}()
	}
	wg.Wait()
	var all []float64
	for _, r := range ref.workers {
		all = append(all, r.times...)
	}
	sort.Float64s(all)
	return quantile(all, 0.5) / refNominalMS
}
