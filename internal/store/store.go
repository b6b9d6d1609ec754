// Package store is the versioned graph store behind the server: it owns
// named graphs and hands out immutable *graph.Graph snapshots via
// copy-on-write MVCC, so every in-flight query keeps a perfectly consistent
// view while writes land.
//
// Each graph is a version chain. Writes (Handle.Mutate) are serialized by a
// per-graph write lock, applied as a delta overlay over the chain's
// materialized base (graph.Apply — incremental adjacency maintenance, no
// CSR rebuild), and published as a new Snapshot through an atomic pointer.
// Readers never block: a query pins whatever snapshot was current at
// admission and keeps it until it finishes, regardless of later commits.
//
// When a chain's delta depth crosses the compaction threshold, a background
// compactor folds it into a fresh fully-indexed base (graph.Materialize)
// off the write lock, replays any batches that committed meanwhile from the
// delta log, and publishes the compacted snapshot under a new revision —
// the same version, because compaction is observationally a no-op.
//
// Version vs revision: Version is the client-visible commit counter (used
// by mutate-API preconditions); Rev additionally bumps on compaction and
// names the physical graph: the engine stamps every cached plan with the Rev
// it was compiled against and serves it to no other, because a compiled
// product holds the graph it was resolved against. What a new Rev does not
// throw away is what the commit did not change: label statistics are kept by
// graph.Apply and neighbor tables live on the version chain, valid for every
// Rev whose edges under their label are the same (DESIGN §19).
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"graphquery/internal/graph"
)

// The store's error taxonomy; the server maps these onto its HTTP write
// taxonomy (409 exists / version mismatch, 404 not found, 405 read-only).
var (
	ErrExists          = errors.New("store: graph already exists")
	ErrNotFound        = errors.New("store: no such graph")
	ErrReadOnly        = errors.New("store: graph is read-only")
	ErrVersionMismatch = errors.New("store: version precondition failed")
)

// DefaultCompactThreshold is the delta depth at which a chain is folded
// into a fresh base when the store's config leaves the threshold zero.
const DefaultCompactThreshold = 4096

// Config tunes a Store.
type Config struct {
	// CompactThreshold is the delta depth (mutations since the last
	// materialized base) that triggers background compaction. 0 uses
	// DefaultCompactThreshold; negative disables compaction entirely.
	CompactThreshold int
	// OnSwap, when non-nil, observes every snapshot publication — commits
	// and compactions — in commit order (the per-graph write lock is held).
	// The server uses it to point the graph's engine at the new snapshot.
	OnSwap func(name string, snap *Snapshot)
}

// Store owns named graph version chains. Create with New.
type Store struct {
	cfg Config

	mu     sync.RWMutex
	graphs map[string]*Handle

	// compactors tracks in-flight background compactions so Close can wait
	// for them (tests, clean shutdown).
	compactors sync.WaitGroup

	loads           atomic.Int64
	deletes         atomic.Int64
	mutationBatches atomic.Int64
	mutationOps     atomic.Int64
	compactions     atomic.Int64
}

// New returns an empty store.
func New(cfg Config) *Store {
	if cfg.CompactThreshold == 0 {
		cfg.CompactThreshold = DefaultCompactThreshold
	}
	return &Store{cfg: cfg, graphs: make(map[string]*Handle)}
}

// Snapshot is one immutable published version of a graph. G is safe for
// unlimited concurrent readers; Acquire/Release track how many queries are
// pinned to the graph's chain (observability — snapshots are garbage
// collected by the runtime, not by the refcount).
type Snapshot struct {
	G       *graph.Graph
	Version uint64 // client-visible commit counter (preconditions)
	Rev     uint64 // physical revision: commits + compactions (stamps cached plans)

	h *Handle
}

// Acquire records a reader pinned to this snapshot's graph.
func (s *Snapshot) Acquire() { s.h.pins.Add(1) }

// Release undoes one Acquire.
func (s *Snapshot) Release() { s.h.pins.Add(-1) }

// Handle is one named graph's version chain.
type Handle struct {
	store    *Store
	name     string
	readOnly bool

	// writeMu serializes Mutate and the compactor's publish step — the
	// single-writer discipline graph.Apply requires.
	writeMu sync.Mutex
	cur     atomic.Pointer[Snapshot]

	// log holds the mutation batches committed since the last materialized
	// base, so a compaction can replay batches that land while it
	// materializes off-lock. Guarded by writeMu. Unused (nil) when
	// compaction is disabled.
	log [][]graph.Mutation

	pins        atomic.Int64
	compacting  atomic.Bool
	compactions atomic.Int64
}

// Name returns the graph's registered name.
func (h *Handle) Name() string { return h.name }

// ReadOnly reports whether Mutate and Delete are rejected for this graph.
func (h *Handle) ReadOnly() bool { return h.readOnly }

// Snapshot returns the current published snapshot. The result is immutable
// and safe to read for as long as the caller keeps it.
func (h *Handle) Snapshot() *Snapshot { return h.cur.Load() }

// Load registers g under name. Read-only graphs (the boot-time catalog)
// reject Mutate and Delete. The initial snapshot is Version 1, Rev 1.
func (s *Store) Load(name string, g *graph.Graph, readOnly bool) (*Handle, error) {
	if name == "" {
		return nil, fmt.Errorf("store: empty graph name")
	}
	h := &Handle{store: s, name: name, readOnly: readOnly}
	snap := &Snapshot{G: g, Version: 1, Rev: 1, h: h}
	h.cur.Store(snap)

	s.mu.Lock()
	if _, dup := s.graphs[name]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	s.graphs[name] = h
	s.mu.Unlock()

	s.loads.Add(1)
	if s.cfg.OnSwap != nil {
		s.cfg.OnSwap(name, snap)
	}
	return h, nil
}

// Get resolves a named graph.
func (s *Store) Get(name string) (*Handle, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.graphs[name]
	return h, ok
}

// Delete removes a graph from the store. In-flight queries pinned to its
// snapshots finish undisturbed — the chain stays alive until they drop it.
// Read-only graphs cannot be deleted.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	h, ok := s.graphs[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if h.readOnly {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrReadOnly, name)
	}
	delete(s.graphs, name)
	s.mu.Unlock()
	s.deletes.Add(1)
	return nil
}

// Drop removes a graph unconditionally — read-only or not — without
// touching the deletes counter. It backs the server's replace-on-register
// semantics; client-facing deletion goes through Delete and its taxonomy.
func (s *Store) Drop(name string) {
	s.mu.Lock()
	delete(s.graphs, name)
	s.mu.Unlock()
}

// Names lists the registered graph names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.graphs))
	for name := range s.graphs {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Close waits for in-flight background compactions to finish.
func (s *Store) Close() { s.compactors.Wait() }

// Mutate applies one batch atomically and publishes the resulting version.
// ifVersion, when nonzero, is a precondition on the current Version
// (optimistic concurrency for read-modify-write clients). On any error the
// published snapshot is unchanged. The new snapshot is returned.
func (h *Handle) Mutate(muts []graph.Mutation, ifVersion uint64) (*Snapshot, error) {
	if h.readOnly {
		return nil, fmt.Errorf("%w: %q", ErrReadOnly, h.name)
	}
	h.writeMu.Lock()
	defer h.writeMu.Unlock()
	cur := h.cur.Load()
	if ifVersion != 0 && cur.Version != ifVersion {
		return nil, fmt.Errorf("%w: graph %q is at version %d, precondition wanted %d",
			ErrVersionMismatch, h.name, cur.Version, ifVersion)
	}
	ng, err := cur.G.Apply(muts)
	if err != nil {
		return nil, err
	}
	next := &Snapshot{G: ng, Version: cur.Version + 1, Rev: cur.Rev + 1, h: h}
	if h.store.cfg.CompactThreshold > 0 {
		// Keep the batch for compaction replay; the slice is owned by the
		// caller per the HTTP layer's decode, never mutated after Apply.
		h.log = append(h.log, muts)
	}
	h.cur.Store(next)
	h.store.mutationBatches.Add(1)
	h.store.mutationOps.Add(int64(len(muts)))
	if h.store.cfg.OnSwap != nil {
		h.store.cfg.OnSwap(h.name, next)
	}
	h.maybeCompact(ng)
	return next, nil
}

// maybeCompact launches a background compaction when the chain's delta
// depth crossed the threshold and none is running. Called under writeMu.
func (h *Handle) maybeCompact(g *graph.Graph) {
	t := h.store.cfg.CompactThreshold
	if t <= 0 || g.DeltaOps() < t {
		return
	}
	if !h.compacting.CompareAndSwap(false, true) {
		return
	}
	h.store.compactors.Add(1)
	go h.compact()
}

// compact folds the chain into a fresh materialized base. The expensive
// Materialize runs off the write lock — writers and readers proceed —
// then batches that committed meanwhile are replayed from the delta log
// under the lock (cheap: proportional to what landed during the rebuild)
// and the compacted snapshot is published as Rev+1 with the same Version.
func (h *Handle) compact() {
	defer h.store.compactors.Done()
	defer h.compacting.Store(false)

	h.writeMu.Lock()
	snap := h.cur.Load()
	mark := len(h.log)
	h.writeMu.Unlock()

	base, err := snap.G.Materialize()
	if err != nil {
		// Cannot happen for a consistent chain (Materialize replays live
		// elements through the Builder); leave the overlay chain serving.
		return
	}

	h.writeMu.Lock()
	defer h.writeMu.Unlock()
	for _, batch := range h.log[mark:] {
		ng, err := base.Apply(batch)
		if err != nil {
			// Replaying committed batches onto the equivalent state cannot
			// fail; bail out leaving the (correct) overlay chain in place.
			return
		}
		base = ng
	}
	cur := h.cur.Load()
	next := &Snapshot{G: base, Version: cur.Version, Rev: cur.Rev + 1, h: h}
	h.cur.Store(next)
	h.log = nil
	h.compactions.Add(1)
	h.store.compactions.Add(1)
	if h.store.cfg.OnSwap != nil {
		h.store.cfg.OnSwap(h.name, next)
	}
}

// GraphStatus is one graph's store-level observability snapshot.
type GraphStatus struct {
	Name        string `json:"name"`
	ReadOnly    bool   `json:"read_only"`
	Version     uint64 `json:"version"`
	Rev         uint64 `json:"rev"`
	DeltaOps    int    `json:"delta_ops"`
	Compactions int64  `json:"compactions"`
	Pins        int64  `json:"pins"`
	LiveNodes   int    `json:"live_nodes"`
	LiveEdges   int    `json:"live_edges"`
}

// Status snapshots one graph's store-level counters.
func (h *Handle) Status() GraphStatus {
	snap := h.cur.Load()
	return GraphStatus{
		Name:        h.name,
		ReadOnly:    h.readOnly,
		Version:     snap.Version,
		Rev:         snap.Rev,
		DeltaOps:    snap.G.DeltaOps(),
		Compactions: h.compactions.Load(),
		Pins:        h.pins.Load(),
		LiveNodes:   snap.G.NumLiveNodes(),
		LiveEdges:   snap.G.NumLiveEdges(),
	}
}

// Stats is the store-wide observability snapshot.
type Stats struct {
	Graphs          int           `json:"graphs"`
	Loads           int64         `json:"loads"`
	Deletes         int64         `json:"deletes"`
	MutationBatches int64         `json:"mutation_batches"`
	MutationOps     int64         `json:"mutation_ops"`
	Compactions     int64         `json:"compactions"`
	PerGraph        []GraphStatus `json:"per_graph"`
}

// Stats snapshots the store counters and every graph's status, sorted by
// name.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	handles := make([]*Handle, 0, len(s.graphs))
	for _, h := range s.graphs {
		handles = append(handles, h)
	}
	s.mu.RUnlock()
	sort.Slice(handles, func(i, j int) bool { return handles[i].name < handles[j].name })
	st := Stats{
		Graphs:          len(handles),
		Loads:           s.loads.Load(),
		Deletes:         s.deletes.Load(),
		MutationBatches: s.mutationBatches.Load(),
		MutationOps:     s.mutationOps.Load(),
		Compactions:     s.compactions.Load(),
		PerGraph:        make([]GraphStatus, len(handles)),
	}
	for i, h := range handles {
		st.PerGraph[i] = h.Status()
	}
	return st
}
