package spanner_test

import (
	"context"
	"errors"
	"testing"

	"graphquery/internal/core"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/rpq"
	"graphquery/internal/spanner"
)

// FuzzParse covers the regex-formula parser behind lang "spanner": no input
// panics Parse; what parses prints to a text that parses back to the same
// text; and the engine refuses as too large exactly the formulas whose
// erasure over doc rpq.CheckPositions refuses — the compiled size depends
// on the document, since '.' and '\w' erase to one label per byte of it
// they accept. Accepted formulas run under a small states budget, so a
// capture recursion that blows up stays cheap.
func FuzzParse(f *testing.F) {
	engine := core.New(gen.Cycle(3, "a"))
	engine.Budget = eval.Budget{MaxStates: 4096}
	f.Fuzz(func(t *testing.T, text, doc string) {
		e, err := spanner.Parse(text)
		if err != nil {
			return
		}
		printed := e.String()
		back, err := spanner.Parse(printed)
		if err != nil {
			t.Fatalf("%q parses, but what it prints as, %q, does not: %v", text, printed, err)
		}
		if back.String() != printed {
			t.Fatalf("%q prints as %q, which parses to %q", text, printed, back)
		}
		tooLarge := rpq.CheckPositions(spanner.Erase(doc, e)) != nil
		_, err = engine.QueryCtx(context.Background(), core.Request{Lang: "spanner", Query: text, Doc: doc})
		if errors.Is(err, rpq.ErrTooLarge) != tooLarge || tooLarge && !errors.Is(err, core.ErrBadQuery) {
			t.Fatalf("%q over %q: its erasure too large is %v; the engine said %v", text, doc, tooLarge, err)
		}
	})
}
