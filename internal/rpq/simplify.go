package rpq

import (
	"slices"
	"sort"
)

// Simplify applies language-preserving algebraic rewrites bottom-up until a
// fixpoint. This is the "automata-aware" rewriting the paper advocates in
// Section 6.1: under set semantics, expressions such as (((a*)*)*)* can be
// rewritten to a*, side-stepping the bag-semantics explosion entirely.
//
// Rules:
//
//	concat/union flattening;   ε elimination in concatenation;
//	(R*)* → R*;                ε* → ε;
//	(ε + R)* → R*;             duplicate removal in unions;
//	(R₁* + R₂)* → (R₁ + R₂)*;  single-alternative unions collapse.
func Simplify(e Expr) Expr {
	for {
		next := simplifyOnce(e)
		if next.String() == e.String() {
			return next
		}
		e = next
	}
}

func simplifyOnce(e Expr) Expr {
	switch n := e.(type) {
	case Epsilon, Label:
		return e
	case NotIn:
		set := append([]string(nil), n.Set...)
		sort.Strings(set)
		return NotIn{Set: slices.Compact(set)}
	case Concat:
		var parts []Expr
		for _, p := range n.Parts {
			p = simplifyOnce(p)
			switch sp := p.(type) {
			case Epsilon:
				// ε is the concatenation identity.
			case Concat:
				parts = append(parts, sp.Parts...)
			default:
				parts = append(parts, p)
			}
		}
		return Seq(parts...)
	case Union:
		var alts []Expr
		seen := map[string]struct{}{}
		for _, a := range n.Alts {
			a = simplifyOnce(a)
			flat := []Expr{a}
			if u, ok := a.(Union); ok {
				flat = u.Alts
			}
			for _, f := range flat {
				k := f.String()
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				alts = append(alts, f)
			}
		}
		return Alt(alts...)
	case Star:
		sub := simplifyOnce(n.Sub)
		switch s := sub.(type) {
		case Epsilon:
			return Epsilon{}
		case Star:
			// (R*)* = R*
			return s
		case Union:
			// Inside a star: drop ε alternatives and unwrap starred
			// alternatives — (ε + R)* = R*, (R₁* + R₂)* = (R₁ + R₂)*.
			var alts []Expr
			for _, a := range s.Alts {
				switch aa := a.(type) {
				case Epsilon:
					// dropped
				case Star:
					alts = append(alts, aa.Sub)
				default:
					alts = append(alts, a)
				}
			}
			if len(alts) == 0 {
				return Epsilon{}
			}
			return Star{Sub: Alt(alts...)}
		default:
			return Star{Sub: sub}
		}
	case Repeat:
		sub := simplifyOnce(n.Sub)
		if _, isEps := sub.(Epsilon); isEps {
			return Epsilon{}
		}
		if n.Min == 1 && n.Max == 1 {
			return sub
		}
		if n.Min == 0 && n.Max == 0 {
			return Epsilon{}
		}
		return Repeat{Sub: sub, Min: n.Min, Max: n.Max}
	default:
		return e
	}
}
