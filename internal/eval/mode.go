// Package eval holds what the RPQ evaluators share: the product
// construction of Section 6.2 — the graph and an NFA for the expression
// traversed in parallel, so that query answering is reachability in the
// product graph G× — the path modes of Section 3.1.5 (all / shortest /
// simple / trail) that the anchored path evaluators take, and the
// all-pairs answer ⟦R⟧_G, swept over the product by the kernel's
// all-sources driver and handed out as runs or index pairs.
//
// Paths themselves are enumerated elsewhere, once per mode: lrpq.Plan
// between two anchors, dlrpq for data tests, and pmr for counting and
// enumerating a path multiset representation.
package eval

import "fmt"

// Mode is a path mode m ∈ {shortest, simple, trail, all} (Section 3.1.5).
type Mode uint8

// The path modes.
const (
	All Mode = iota
	Shortest
	Simple
	Trail
)

func (m Mode) String() string {
	switch m {
	case All:
		return "all"
	case Shortest:
		return "shortest"
	case Simple:
		return "simple"
	case Trail:
		return "trail"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ParseMode parses a mode keyword.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "all", "":
		return All, nil
	case "shortest":
		return Shortest, nil
	case "simple":
		return Simple, nil
	case "trail":
		return Trail, nil
	default:
		return 0, fmt.Errorf("eval: unknown path mode %q", s)
	}
}
