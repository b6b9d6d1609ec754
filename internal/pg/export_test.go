package pg

import mathbits "math/bits"

// BatchShapes runs the windows of an all-sources call over sources (nil:
// every node) through the level loop, each batch on a fresh batch value, as
// SweepFrom and a SweepAll that does not condense run them, and reports per
// window the level at which its batch moved onto the flat slabs (-1: it
// stayed on the compact map) and how many times its table doubled.
func BatchShapes(k *Kernel, sources []int) (flatAt, doublings []int, err error) {
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
			return nil, nil, err
		}
		first := 1 << mathbits.Len(uint(max(2*len(srcs)*len(k.starts)-1, 1)))
		flatAt = append(flatAt, b.flatAt)
		doublings = append(doublings, mathbits.Len(uint(len(b.tab)/first))-1)
	}
	return flatAt, doublings, nil
}
