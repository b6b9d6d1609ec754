package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"graphquery/internal/cypherfrag"
	"graphquery/internal/rpq"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08", "E09", "E10",
		"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20",
		"E21", "E22", "E23", "E24", "E25", "E26", "E27", "E28", "E29", "E30",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registered %d experiments, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("E99"); ok {
		t.Error("unknown experiment should not resolve")
	}
	var buf bytes.Buffer
	if err := Run(&buf, "E99"); err == nil {
		t.Error("running unknown experiment should error")
	}
}

// TestEveryExperimentRuns executes each experiment and checks it produces
// output without errors. The heavyweight ones are exercised too — they are
// sized to finish in seconds.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavyweight")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(&buf, id); err != nil {
				t.Fatalf("%s failed: %v", id, err)
			}
			out := buf.String()
			if !strings.Contains(out, "=== "+id) {
				t.Errorf("missing header:\n%s", out)
			}
			if len(out) < 80 {
				t.Errorf("suspiciously short output:\n%s", out)
			}
		})
	}
}

// TestSpotChecks verifies a few headline numbers inside experiment output.
func TestSpotChecks(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, "E01"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "36") {
		t.Errorf("E01 should report 36 pairs:\n%s", buf.String())
	}
	buf.Reset()
	if err := Run(&buf, "E20"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "path(a3, t6, a4, t9, a6, t10, a5)") {
		t.Errorf("E20 should report the paper's filtered shortest path:\n%s", out)
	}
	if !strings.Contains(out, "path(a3, t7, a5, t4, a1, t1, a3, t7, a5)") {
		t.Errorf("E20 should report the cyclic two-cheap path:\n%s", out)
	}
	// Example 17: shortest is applied per (y1, y2) pair, so both rows are in
	// the answer; applied once over all pairs, the length-2 row is not.
	buf.Reset()
	if err := Run(&buf, "E06"); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "Jay,Rebecca,list(t10) present: true; Mike,Megan,list(t7, t4) present: true") {
		t.Errorf("E06 should report both per-pair shortest rows:\n%s", out)
	}
	if !strings.Contains(out, "Mike,Megan row survives: false") {
		t.Errorf("E06's global-shortest ablation should drop the Mike, Megan row:\n%s", out)
	}
}

// TestE13Reproducible: E13 prints the same sample refutations on every run,
// the four smallest candidates in sorted order.
func TestE13Reproducible(t *testing.T) {
	var a, b bytes.Buffer
	if err := Run(&a, "E13"); err != nil {
		t.Fatal(err)
	}
	if err := Run(&b, "E13"); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two runs of E13 differ:\n%s\n---\n%s", a.String(), b.String())
	}
	res := cypherfrag.SearchEquivalent(rpq.MustParse("(a a)*"), []string{"a"}, 9)
	pats := make([]string, 0, len(res.Witnesses))
	for pat := range res.Witnesses {
		pats = append(pats, pat)
	}
	slices.Sort(pats)
	if len(pats) < 4 {
		t.Fatalf("only %d refuted candidates", len(pats))
	}
	_, listed, _ := strings.Cut(a.String(), "sample refutations (candidate ⇒ separating word):\n")
	for i, line := range strings.SplitN(listed, "\n", 5)[:4] {
		if want := fmt.Sprintf("    %-28s ⇒ %q", pats[i], strings.Join(res.Witnesses[pats[i]], "")); line != want {
			t.Fatalf("refutation %d reads %q, want %q", i+1, line, want)
		}
	}
}
