package relalg_test

import (
	"context"
	"errors"
	"testing"

	"graphquery/internal/core"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/relalg"
	"graphquery/internal/rpq"
)

// oversized reports whether a REACH atom of q is past the positions bound.
func oversized(q relalg.Query) bool {
	switch n := q.(type) {
	case relalg.ReachQ:
		return rpq.CheckPositions(n.Expr) != nil
	case relalg.JoinQ:
		return oversized(n.Left) || oversized(n.Right)
	case relalg.UnionQ:
		return oversized(n.Left) || oversized(n.Right)
	case relalg.DiffQ:
		return oversized(n.Left) || oversized(n.Right)
	case relalg.ProjectQ:
		return oversized(n.Sub)
	case relalg.RenameQ:
		return oversized(n.Sub)
	}
	return false
}

// FuzzParseQuery covers the algebra parser behind lang "relalg": no input
// panics ParseQuery; what parses prints to a text that parses back to the
// same text; ParseQuery refuses a REACH atom past rpq.CheckPositions and
// accepts no query with one; and the engine refuses as too large exactly
// what ParseQuery refused so. Accepted queries run on a three-node cycle
// under a small states budget, so a chain of cross products stays cheap.
func FuzzParseQuery(f *testing.F) {
	engine := core.New(gen.Cycle(3, "a"))
	engine.Parallelism = 1
	engine.Budget = eval.Budget{MaxStates: 64}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := relalg.ParseQuery(text)
		tooLarge := errors.Is(err, rpq.ErrTooLarge)
		if err != nil && !tooLarge {
			return
		}
		if err == nil {
			if oversized(q) {
				t.Fatalf("%q parses with a REACH atom past the positions bound", text)
			}
			printed := q.String()
			back, err := relalg.ParseQuery(printed)
			if err != nil {
				t.Fatalf("%q parses, but what it prints as, %q, does not: %v", text, printed, err)
			}
			if back.String() != printed {
				t.Fatalf("%q prints as %q, which parses to %q", text, printed, back)
			}
		}
		_, err = engine.QueryCtx(context.Background(), core.Request{Lang: "relalg", Query: text})
		if errors.Is(err, rpq.ErrTooLarge) != tooLarge || tooLarge && !errors.Is(err, core.ErrBadQuery) {
			t.Fatalf("%q: the parser refused it as too large: %v; the engine said %v", text, tooLarge, err)
		}
	})
}
