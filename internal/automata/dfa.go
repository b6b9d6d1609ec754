package automata

import (
	"slices"
	"sort"
	"strings"
)

// DFA is a complete deterministic automaton over the minterm alphabet
// Labels ∪ {other}, where "other" stands for any label not mentioned by the
// original automaton (the alphabet of graphs is infinite, Remark 11).
// Column i of Next is the transition on Labels[i]; the final column is the
// transition on the "other" class.
type DFA struct {
	Labels []string // sorted mentioned labels
	Start  int
	Accept []bool
	Next   [][]int // state × (len(Labels)+1)
}

// NumStates returns the number of DFA states.
func (d *DFA) NumStates() int { return len(d.Next) }

// classIndex maps a concrete label to its minterm column.
func (d *DFA) classIndex(label string) int {
	i := sort.SearchStrings(d.Labels, label)
	if i < len(d.Labels) && d.Labels[i] == label {
		return i
	}
	return len(d.Labels)
}

// Step returns δ(q, label).
func (d *DFA) Step(q int, label string) int { return d.Next[q][d.classIndex(label)] }

// Accepts runs the DFA on word.
func (d *DFA) Accepts(word []string) bool {
	q := d.Start
	for _, sym := range word {
		q = d.Step(q, sym)
	}
	return d.Accept[q]
}

// Determinize builds a complete DFA for L(A) via the subset construction
// over A's mentioned labels plus the "other" class.
func (a *NFA) Determinize() *DFA {
	return a.DeterminizeOver(a.MentionedLabels())
}

// DeterminizeOver is Determinize with an explicitly enlarged label universe
// (the universe must contain every label mentioned by A). It is used when
// two automata must share a minterm alphabet, e.g. for equivalence testing.
func (a *NFA) DeterminizeOver(universe []string) *DFA {
	labels := append([]string(nil), universe...)
	sort.Strings(labels)
	labels = slices.Compact(labels)
	// A representative concrete label for the "other" class: fresh w.r.t.
	// both the universe and all co-finite guard exception sets.
	other := freshLabel(labels, a)

	cols := len(labels) + 1
	symbolOf := func(c int) string {
		if c < len(labels) {
			return labels[c]
		}
		return other
	}

	type setKey string
	key := func(set []int) setKey {
		var b strings.Builder
		for _, q := range set {
			b.WriteString(itoa(q))
			b.WriteByte(',')
		}
		return setKey(b.String())
	}

	startSet := []int{a.Start}
	index := map[setKey]int{key(startSet): 0}
	sets := [][]int{startSet}
	d := &DFA{Labels: labels, Start: 0}
	for i := 0; i < len(sets); i++ {
		set := sets[i]
		acc := false
		for _, q := range set {
			if a.Accept[q] {
				acc = true
				break
			}
		}
		d.Accept = append(d.Accept, acc)
		row := make([]int, cols)
		for c := 0; c < cols; c++ {
			sym := symbolOf(c)
			nextSet := map[int]struct{}{}
			for _, q := range set {
				for _, t := range a.Trans[q] {
					if t.Guard.Matches(sym) {
						nextSet[t.To] = struct{}{}
					}
				}
			}
			ns := make([]int, 0, len(nextSet))
			for q := range nextSet {
				ns = append(ns, q)
			}
			sort.Ints(ns)
			k := key(ns)
			j, ok := index[k]
			if !ok {
				j = len(sets)
				index[k] = j
				sets = append(sets, ns)
			}
			row[c] = j
		}
		d.Next = append(d.Next, row)
	}
	return d
}

// freshLabel returns a label outside universe and outside every co-finite
// guard exception set of a, so it genuinely represents "any other label".
func freshLabel(universe []string, a *NFA) string {
	used := map[string]struct{}{}
	for _, l := range universe {
		used[l] = struct{}{}
	}
	if a != nil {
		for _, ts := range a.Trans {
			for _, t := range ts {
				for _, l := range t.Guard.Labels {
					used[l] = struct{}{}
				}
			}
		}
	}
	cand := "⊥" // ⊥
	for {
		if _, clash := used[cand]; !clash {
			return cand
		}
		cand += "'"
	}
}

// Complement returns a DFA for the complement language (over the same
// minterm alphabet).
func (d *DFA) Complement() *DFA {
	out := &DFA{Labels: d.Labels, Start: d.Start, Next: d.Next}
	out.Accept = make([]bool, len(d.Accept))
	for i, a := range d.Accept {
		out.Accept[i] = !a
	}
	return out
}

// IsEmpty reports whether the DFA accepts no word.
func (d *DFA) IsEmpty() bool {
	seen := make([]bool, d.NumStates())
	stack := []int{d.Start}
	seen[d.Start] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.Accept[q] {
			return false
		}
		for _, to := range d.Next[q] {
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return true
}

// ShortestAcceptedWord returns a minimum-length accepted word; the "other"
// class is rendered as a fresh concrete label. ok is false when L = ∅.
func (d *DFA) ShortestAcceptedWord() ([]string, bool) {
	other := freshLabel(d.Labels, nil)
	type crumb struct {
		prev int
		sym  string
	}
	from := make([]crumb, d.NumStates())
	seen := make([]bool, d.NumStates())
	queue := []int{d.Start}
	seen[d.Start] = true
	from[d.Start] = crumb{prev: -1}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		if d.Accept[q] {
			var word []string
			for s := q; from[s].prev != -1; s = from[s].prev {
				word = append(word, from[s].sym)
			}
			for i, j := 0, len(word)-1; i < j; i, j = i+1, j-1 {
				word[i], word[j] = word[j], word[i]
			}
			return word, true
		}
		for c, to := range d.Next[q] {
			if !seen[to] {
				seen[to] = true
				sym := other
				if c < len(d.Labels) {
					sym = d.Labels[c]
				}
				from[to] = crumb{prev: q, sym: sym}
				queue = append(queue, to)
			}
		}
	}
	return nil, false
}

// Minimize returns the minimal DFA for L(d), using Hopcroft's partition
// refinement. Unreachable states are removed first.
func (d *DFA) Minimize() *DFA {
	// Restrict to reachable states.
	n := d.NumStates()
	cols := len(d.Labels) + 1
	reach := make([]bool, n)
	stack := []int{d.Start}
	reach[d.Start] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, to := range d.Next[q] {
			if !reach[to] {
				reach[to] = true
				stack = append(stack, to)
			}
		}
	}
	states := []int{}
	pos := make([]int, n)
	for q := 0; q < n; q++ {
		if reach[q] {
			pos[q] = len(states)
			states = append(states, q)
		} else {
			pos[q] = -1
		}
	}
	m := len(states)

	// Inverse transition lists over reachable states.
	inv := make([][][]int, cols)
	for c := range inv {
		inv[c] = make([][]int, m)
	}
	for i, q := range states {
		for c := 0; c < cols; c++ {
			to := pos[d.Next[q][c]]
			inv[c][to] = append(inv[c][to], i)
		}
	}

	// Hopcroft.
	part := make([]int, m) // state -> block id
	var blocks [][]int
	var accBlock, rejBlock []int
	for i, q := range states {
		if d.Accept[q] {
			accBlock = append(accBlock, i)
		} else {
			rejBlock = append(rejBlock, i)
		}
	}
	addBlock := func(b []int) int {
		id := len(blocks)
		blocks = append(blocks, b)
		for _, s := range b {
			part[s] = id
		}
		return id
	}
	type work struct{ block, col int }
	var queue []work
	if len(accBlock) > 0 {
		id := addBlock(accBlock)
		for c := 0; c < cols; c++ {
			queue = append(queue, work{id, c})
		}
	}
	if len(rejBlock) > 0 {
		id := addBlock(rejBlock)
		for c := 0; c < cols; c++ {
			queue = append(queue, work{id, c})
		}
	}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		splitter := blocks[w.block]
		// X = states with a c-transition into the splitter.
		hit := map[int]struct{}{}
		for _, s := range splitter {
			for _, p := range inv[w.col][s] {
				hit[p] = struct{}{}
			}
		}
		if len(hit) == 0 {
			continue
		}
		// Group hit states by their current block; split blocks that are
		// only partially hit.
		byBlock := map[int][]int{}
		for p := range hit {
			byBlock[part[p]] = append(byBlock[part[p]], p)
		}
		for b, hitIn := range byBlock {
			if len(hitIn) == len(blocks[b]) {
				continue // block entirely inside X: no split
			}
			inHit := map[int]struct{}{}
			for _, p := range hitIn {
				inHit[p] = struct{}{}
			}
			var stay []int
			for _, p := range blocks[b] {
				if _, ok := inHit[p]; !ok {
					stay = append(stay, p)
				}
			}
			blocks[b] = stay
			newID := addBlock(hitIn)
			for c := 0; c < cols; c++ {
				queue = append(queue, work{newID, c})
			}
		}
	}

	// Assemble the quotient DFA.
	out := &DFA{Labels: d.Labels, Start: part[pos[d.Start]]}
	out.Accept = make([]bool, len(blocks))
	out.Next = make([][]int, len(blocks))
	for b, members := range blocks {
		rep := states[members[0]]
		out.Accept[b] = d.Accept[rep]
		row := make([]int, cols)
		for c := 0; c < cols; c++ {
			row[c] = part[pos[d.Next[rep][c]]]
		}
		out.Next[b] = row
	}
	return out
}

// Equivalent reports whether two NFAs recognize the same language: no word
// lies in their symmetric difference (Distinguish).
func Equivalent(a, b *NFA) bool {
	_, differ := Distinguish(a, b, append(a.MentionedLabels(), b.MentionedLabels()...), "")
	return !differ
}

// Distinguish returns a shortest word in the symmetric difference of L(a)
// and L(b), found by a breadth-first walk of the product of the two DFAs
// determinized over universe (which must hold every label either
// mentions); a label outside universe is written as other. ok is false when
// the languages are equal.
func Distinguish(a, b *NFA, universe []string, other string) (word []string, ok bool) {
	da := a.DeterminizeOver(universe)
	db := b.DeterminizeOver(universe)
	type pair struct{ p, q int }
	type crumb struct {
		prev pair
		sym  string
		has  bool
	}
	from := map[pair]crumb{{da.Start, db.Start}: {}}
	queue := []pair{{da.Start, db.Start}}
	for len(queue) > 0 {
		pr := queue[0]
		queue = queue[1:]
		if da.Accept[pr.p] != db.Accept[pr.q] {
			for c := from[pr]; c.has; c = from[c.prev] {
				word = append(word, c.sym)
			}
			slices.Reverse(word)
			return word, true
		}
		for c := range da.Next[pr.p] {
			np := pair{da.Next[pr.p][c], db.Next[pr.q][c]}
			if _, seen := from[np]; !seen {
				sym := other
				if c < len(da.Labels) {
					sym = da.Labels[c]
				}
				from[np] = crumb{prev: pr, sym: sym, has: true}
				queue = append(queue, np)
			}
		}
	}
	return nil, false
}

// itoa is a tiny allocation-light integer renderer for subset keys.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// ToNFA converts the DFA back to an NFA with symbolic guards: column i
// becomes a transition guarded by Labels[i], and the "other" column becomes
// a co-finite guard !Labels. The result is deterministic, hence unambiguous.
func (d *DFA) ToNFA() *NFA {
	a := NewNFA(d.NumStates(), d.Start)
	for q := 0; q < d.NumStates(); q++ {
		if d.Accept[q] {
			a.SetAccept(q)
		}
		for c, to := range d.Next[q] {
			if c < len(d.Labels) {
				a.AddTransition(q, GuardLabel(d.Labels[c]), to)
			} else {
				a.AddTransition(q, GuardNotIn(d.Labels...), to)
			}
		}
	}
	return a
}

// Canonical returns a canonical string for the language of the DFA,
// obtained by minimizing and BFS-renumbering the result: two DFAs over the
// same label universe have equal Canonical strings iff their languages are
// equal. Used to deduplicate languages in bounded-exhaustive expressiveness
// searches (Proposition 22 experiments).
func (d *DFA) Canonical() string {
	m := d.Minimize()
	order := make([]int, 0, m.NumStates())
	pos := make([]int, m.NumStates())
	for i := range pos {
		pos[i] = -1
	}
	queue := []int{m.Start}
	pos[m.Start] = 0
	order = append(order, m.Start)
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, to := range m.Next[q] {
			if pos[to] == -1 {
				pos[to] = len(order)
				order = append(order, to)
				queue = append(queue, to)
			}
		}
	}
	var b strings.Builder
	b.WriteString(strings.Join(m.Labels, ","))
	b.WriteByte('#')
	for _, q := range order {
		if m.Accept[q] {
			b.WriteByte('*')
		}
		for _, to := range m.Next[q] {
			b.WriteString(itoa(pos[to]))
			b.WriteByte('.')
		}
		b.WriteByte(';')
	}
	return b.String()
}

// Contained reports whether L(A) ⊆ L(B) — the query-containment primitive
// of static analysis (Section 7.1): the product of A with the complement of
// B must accept nothing.
func Contained(a, b *NFA) bool {
	universe := append(a.MentionedLabels(), b.MentionedLabels()...)
	da := a.DeterminizeOver(universe)
	db := b.DeterminizeOver(universe)
	cols := len(da.Labels) + 1
	type pair struct{ p, q int }
	seen := map[pair]struct{}{{da.Start, db.Start}: {}}
	stack := []pair{{da.Start, db.Start}}
	for len(stack) > 0 {
		pr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if da.Accept[pr.p] && !db.Accept[pr.q] {
			return false // a word in L(A) \ L(B)
		}
		for c := 0; c < cols; c++ {
			np := pair{da.Next[pr.p][c], db.Next[pr.q][c]}
			if _, dup := seen[np]; !dup {
				seen[np] = struct{}{}
				stack = append(stack, np)
			}
		}
	}
	return true
}
