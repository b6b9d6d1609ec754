package pg

import mathbits "math/bits"

// levelBatches runs the windows of an all-sources call over sources (nil:
// every node) through the level loop, each batch on a fresh batch value, as
// SweepFrom and a SweepAll that does not condense run them, and hands done
// each window's batch and sources after its sweep.
func levelBatches(k *Kernel, sources []int, done func(b *batch, srcs []int)) error {
	sl := sourceList{k: k, n: len(sources), sources: sources}
	if sources == nil {
		sl.n = k.g.NumNodes()
	}
	sl.cut()
	tb := k.tables.Load()
	for bi := range sl.ends {
		var buf [batchWidth]int
		srcs, idle := sl.scan(bi, &buf)
		b := &batch{}
		if _, err := k.sweepBatch(tb, srcs, idle, b, nil); err != nil {
			return err
		}
		done(b, srcs)
	}
	return nil
}

// BatchShapes reports, per window of an all-sources call over sources (nil:
// every node) run through the level loop, the level at which its batch moved
// onto the flat slabs (-1: it stayed on the compact map) and how many times
// its table doubled.
func BatchShapes(k *Kernel, sources []int) (flatAt, doublings []int, err error) {
	err = levelBatches(k, sources, func(b *batch, srcs []int) {
		first := 1 << mathbits.Len(uint(max(2*len(srcs)*len(k.starts)-1, 1)))
		flatAt = append(flatAt, b.flatAt)
		doublings = append(doublings, mathbits.Len(uint(len(b.tab)/first))-1)
	})
	return flatAt, doublings, err
}

// LevelHeld reports the product states the batches of a SweepAll over k keep
// in their map or slabs, summed over its windows; levelLoop says the call runs
// every batch on the level loop — its automaton has no cycle, so it never
// condenses — and is false, with nothing run, otherwise.
func LevelHeld(k *Kernel) (held int, levelLoop bool, err error) {
	if k.cyclic {
		return 0, false, nil
	}
	err = levelBatches(k, nil, func(b *batch, _ []int) { held += len(b.touched) })
	return held, true, err
}
