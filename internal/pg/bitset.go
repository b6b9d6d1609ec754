package pg

// bitset is a word-packed bit array with a touched-word list: the first set
// bit in a word records the word's index, so reset costs O(words written)
// instead of O(capacity). That property is what makes scratch reuse cheap
// for sweeps that visit a tiny corner of a huge product space — and it is
// why the sweep loop's visited and emitted sets are bitsets, not byte
// arrays: 64 states per cache line instead of one, cleared by replaying the
// touched list.
type bitset struct {
	words   []uint64
	touched []int32
}

// newBitset returns a bitset with capacity for n bits.
func newBitset(n int) bitset {
	return bitset{words: make([]uint64, (n+63)>>6)}
}

// testSet sets bit i and reports whether it was previously clear.
func (b *bitset) testSet(i int) bool {
	w, m := i>>6, uint64(1)<<uint(i&63)
	old := b.words[w]
	if old&m != 0 {
		return false
	}
	if old == 0 {
		b.touched = append(b.touched, int32(w))
	}
	b.words[w] = old | m
	return true
}

// test reports bit i.
func (b *bitset) test(i int) bool {
	return b.words[i>>6]&(uint64(1)<<uint(i&63)) != 0
}

// reset clears every touched word.
func (b *bitset) reset() {
	for _, w := range b.touched {
		b.words[w] = 0
	}
	b.touched = b.touched[:0]
}

// testBit reports bit i of a raw word slice — the probe the bottom-up sweep
// runs against a peer shard's frozen frontier bitmap.
func testBit(words []uint64, i int) bool {
	return words[i>>6]&(uint64(1)<<uint(i&63)) != 0
}
