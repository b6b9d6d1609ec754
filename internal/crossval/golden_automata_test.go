package crossval_test

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"graphquery/internal/automata"
	"graphquery/internal/crpq"
	"graphquery/internal/cypherfrag"
	"graphquery/internal/dlrpq"
	"graphquery/internal/lrpq"
	"graphquery/internal/rpq"
	"graphquery/internal/spanner"
	"graphquery/internal/twoway"
)

// goldenTexts are the queries of PAPER.md, the README and bench/'s
// workloads; TestGoldenAutomata adds every text of the rpq, lrpq, crpq and
// cypherfrag fuzz corpora, seeds and committed files alike.
var goldenTexts = []string{
	// PAPER.md Examples 1–3, 13, 16, 17 and 21
	"a{2}", "a a", "(a a)*", "(a{2})*", "(a | a a)*", "a* b", "(((a*)*)*)*",
	"(Transfer^z)+", "(a a^z | a^z a)*", "(Transfer^z)* isBlocked",
	"q(x, x1, x2) :- owner(y, x1), isBlocked(y, x2), Transfer Transfer? (x, y)",
	"(a^z)(x := date) { [_](a^z)(date > x)(x := date) }*",
	"(_^z) { [x := date](_^z)[date > x] }* [_]",
	// README
	"Transfer*", "Transfer+", "Transfer Transfer", "(a b)*", "a{2,5}", "a | b", "!{a,b}", "_",
	"owner ~owner", "() [Transfer][amount < 4500000] ()",
	"(_^z)(x := date) { [_](_^z)(date > x)(x := date) }*",
	"() {[Transfer]()}* [Transfer][amount < 4500000] () {[Transfer]()}*",
	"q(x1, x2, z) :- owner(y1, x1), owner(y2, x2), shortest (Transfer^z)+(y1, y2)",
	"q(x, y) :- Transfer(x, y), Transfer+(y, x)",
	// bench/'s workloads
	"a* z a", "(!{b})* z a", "(a|b)* z (a|b)", "(a|~a)* z", "a* z", "a", "b b b", "a*",
	"-[:b]->-[:a]->",
	"q(x,y,z,w) :- b(x,y), a(y,z), b(z,w)",
	"q(x,y,z) :- a(x,y), a(y,z), a(z,x)",
	"q(x,y,z,w) :- a(x,y), a(y,z), a(z,w), b(w,x)",
	"q(x,y,z) :- a a(x,y), a(y,z), a(z,x)",
	"q(y) :- a(@n0, y)", "q(y) :- a a(@n0, y)",
}

// goldenCorpora are the packages whose fuzz corpora feed the golden file.
var goldenCorpora = []string{"rpq", "lrpq", "crpq", "cypherfrag"}

// goldenSpannerDoc is the document spanner formulas are erased over: word
// bytes and others, among them every byte the corpus formulas escape.
const goldenSpannerDoc = "ab,c_9 (x.*)\\"

// TestGoldenAutomata pins the automaton every RPQ-family compiler builds
// for a fixed set of texts: state count, accept set and every transition
// in order (in full up to 24 transitions, and always as a SHA-256 of the
// whole list). Each text is offered to rpq, lrpq, twoway and dlrpq, and,
// parsed as a CRPQ or a Cypher-fragment pattern, its atoms to the compiler
// of their tier; whatever parses and stays within rpq.MaxPositions is
// pinned. A 2RPQ is pinned only for a text with no quote, no '.' and no '!'
// outside "!{": the 2RPQ lexer read those characters differently before it
// became the RPQ lexer. Last come the spanner formulas of the README and of
// spanner's fuzz corpus, each pinned as the automaton of its erasure over
// goldenSpannerDoc.
func TestGoldenAutomata(t *testing.T) {
	texts := append([]string(nil), goldenTexts...)
	for _, pkg := range goldenCorpora {
		texts = append(texts, corpusTexts(t, filepath.Join("..", pkg))...)
	}
	var b strings.Builder
	seen := map[string]bool{}
	for _, text := range texts {
		if seen[text] {
			continue
		}
		seen[text] = true
		head := goldenHead(text)
		if e, err := rpq.Parse(text); err == nil && rpq.CheckPositions(e) == nil {
			pinNFA(&b, "rpq "+head, rpq.Compile(e))
		}
		if e, err := lrpq.Parse(text); err == nil && rpq.CheckPositions(lrpq.Erase(e)) == nil {
			pinVNFA(&b, "lrpq "+head, lrpq.Compile(e))
		}
		if e, err := twoway.Parse(text); err == nil && twowayLexStable(text) && twPositions(e) <= rpq.MaxPositions {
			pinTNFA(&b, "twoway "+head, twoway.Compile(e))
		}
		if e, err := dlrpq.Parse(text); err == nil && dlPositions(e) <= rpq.MaxPositions {
			pinANFA(&b, "dlrpq "+head, dlrpq.Compile(e))
		}
		if q, err := crpq.Parse(text); err == nil {
			for i, a := range q.Atoms {
				at := fmt.Sprintf("crpq atom %d %s", i, head)
				switch {
				case a.RPQ != nil && rpq.CheckPositions(a.RPQ) == nil:
					pinNFA(&b, at, rpq.Compile(a.RPQ))
				case a.L != nil && rpq.CheckPositions(lrpq.Erase(a.L)) == nil:
					pinVNFA(&b, at, lrpq.Compile(a.L))
				case a.DL != nil && dlPositions(a.DL) <= rpq.MaxPositions:
					pinANFA(&b, at, dlrpq.Compile(a.DL))
				}
			}
		}
		if p, err := cypherfrag.Parse(text); err == nil {
			if e := cypherfrag.Compile(p); rpq.CheckPositions(e) == nil {
				pinNFA(&b, "cypher "+head, rpq.Compile(e))
			}
		}
	}
	for _, text := range append([]string{"x{a*}y{(b|c)*}"}, spannerFormulas(t)...) {
		if seen["spanner "+text] {
			continue
		}
		seen["spanner "+text] = true
		if e, err := spanner.Parse(text); err == nil {
			if er := spanner.Erase(goldenSpannerDoc, e); rpq.CheckPositions(er) == nil {
				pinNFA(&b, "spanner "+goldenHead(text), rpq.Compile(er))
			}
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "automata.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("automata differ from testdata/automata.golden at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("automata differ from testdata/automata.golden in length: %d lines, want %d", len(gl), len(wl))
}

// goldenHead is the name a text is pinned under: quoted, and cut to a
// digest when long.
func goldenHead(text string) string {
	head := strconv.Quote(text)
	if len(head) > 80 {
		head = fmt.Sprintf("%s… (%d bytes, sha256 %x)", head[:60], len(text), sha256.Sum256([]byte(text)))
	}
	return head
}

// spannerFormulas returns the formulas of spanner's committed fuzz corpus:
// the first of the two strings of each file (the second is its document).
func spannerFormulas(t *testing.T) []string {
	files, err := filepath.Glob(filepath.Join("..", "spanner", "testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "string(") && strings.HasSuffix(line, ")") {
				s, err := strconv.Unquote(line[len("string(") : len(line)-1])
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// corpusTexts returns the string inputs of the Fuzz functions in dir: the
// seeds its fuzz_test.go adds (string literals of a []string the seeds are
// ranged from, or passed to Add directly) and the committed corpus files
// under testdata/fuzz.
func corpusTexts(t *testing.T, dir string) []string {
	var out []string
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, "fuzz_test.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	lit := func(e ast.Expr) {
		if bl, ok := e.(*ast.BasicLit); ok && bl.Kind == token.STRING {
			s, err := strconv.Unquote(bl.Value)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if at, ok := n.Type.(*ast.ArrayType); ok && fmt.Sprint(at.Elt) == "string" {
				for _, e := range n.Elts {
					lit(e)
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
				for _, a := range n.Args {
					lit(a)
				}
			}
		}
		return true
	})
	files, err := filepath.Glob(filepath.Join(dir, "testdata", "fuzz", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "string(") && strings.HasSuffix(line, ")") {
				s, err := strconv.Unquote(line[len("string(") : len(line)-1])
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// twowayLexStable reports whether text avoids the characters the 2RPQ
// lexer once read apart from the RPQ lexer: quotes, '.', and '!' not
// opening "!{".
func twowayLexStable(text string) bool {
	return !strings.ContainsAny(text, "'.") && strings.Count(text, "!") == strings.Count(text, "!{")
}

// dlPositions counts e's Glushkov positions as rpq.Positions does,
// saturating at 1<<20.
func dlPositions(e dlrpq.Expr) int {
	const limit = 1 << 20
	n := 0
	switch e := e.(type) {
	case dlrpq.Concat:
		for _, p := range e.Parts {
			n += dlPositions(p)
		}
	case dlrpq.Union:
		for _, a := range e.Alts {
			n += dlPositions(a)
		}
	case dlrpq.Star:
		n = dlPositions(e.Sub)
	case dlrpq.Repeat:
		n = dlPositions(e.Sub) * max(min(e.Min, limit)+1, min(e.Max, limit))
	default:
		n = 1
	}
	if n < 0 || n > limit {
		return limit
	}
	return n
}

// twPositions is dlPositions for a 2RPQ.
func twPositions(e twoway.Expr) int {
	const limit = 1 << 20
	n := 0
	switch e := e.(type) {
	case twoway.Concat:
		for _, p := range e.Parts {
			n += twPositions(p)
		}
	case twoway.Union:
		for _, a := range e.Alts {
			n += twPositions(a)
		}
	case twoway.Star:
		n = twPositions(e.Sub)
	case twoway.Repeat:
		n = twPositions(e.Sub) * max(min(e.Min, limit)+1, min(e.Max, limit))
	default:
		n = 1
	}
	if n < 0 || n > limit {
		return limit
	}
	return n
}

// pin writes one automaton: its name, state count, accept set, transition
// count and digest, then the transitions themselves when there are few.
func pin(b *strings.Builder, name string, states, start int, accept []bool, trans [][]string) {
	var acc []int
	for q, ok := range accept {
		if ok {
			acc = append(acc, q)
		}
	}
	var all strings.Builder
	n := 0
	for q, ts := range trans {
		for _, s := range ts {
			fmt.Fprintf(&all, "  %d -> %s\n", q, s)
			n++
		}
	}
	fmt.Fprintf(b, "%s\n  states %d start %d accept %v transitions %d sha256 %x\n", name, states, start, acc, n, sha256.Sum256([]byte(all.String())))
	if n <= 24 {
		b.WriteString(all.String())
	}
}

func guardString(g automata.Guard) string { return fmt.Sprintf("neg=%t %q", g.Negated, g.Labels) }

func pinNFA(b *strings.Builder, name string, a *automata.NFA) {
	trans := make([][]string, len(a.Trans))
	for q, ts := range a.Trans {
		for _, t := range ts {
			trans[q] = append(trans[q], fmt.Sprintf("%d %s", t.To, guardString(t.Guard)))
		}
	}
	pin(b, name, a.NumStates, a.Start, a.Accept, trans)
}

func pinVNFA(b *strings.Builder, name string, a *lrpq.VNFA) {
	trans := make([][]string, len(a.Trans))
	for q, ts := range a.Trans {
		for _, t := range ts {
			trans[q] = append(trans[q], fmt.Sprintf("%d %s var=%q", t.To, guardString(t.Guard), t.Var))
		}
	}
	pin(b, name, a.NumStates, a.Start, a.Accept, trans)
}

func pinTNFA(b *strings.Builder, name string, a *twoway.TNFA) {
	trans := make([][]string, len(a.Trans))
	for q, ts := range a.Trans {
		for _, t := range ts {
			trans[q] = append(trans[q], fmt.Sprintf("%d %s back=%t", t.To, guardString(t.Guard), t.Back))
		}
	}
	pin(b, name, a.NumStates, a.Start, a.Accept, trans)
}

func pinANFA(b *strings.Builder, name string, a *dlrpq.ANFA) {
	trans := make([][]string, len(a.Trans))
	for q, ts := range a.Trans {
		for _, t := range ts {
			at := t.Atom
			s := fmt.Sprintf("%d edge=%t name=%q wild=%t except=%q var=%q", t.To, at.Edge, at.Name, at.Wild, at.Except, at.Var)
			if at.Test != nil {
				s += fmt.Sprintf(" test=%+v", *at.Test)
			}
			trans[q] = append(trans[q], s)
		}
	}
	pin(b, name, a.NumStates, a.Start, a.Accept, trans)
}
