// Roadmap: the Section 7 research directions, exercised together on an
// organizational graph — two-way navigation (Remark 9), nested CRPQs
// (§3.1.3), worst-case-optimal joins, cardinality estimation, and RPQ
// containment (§7.1).
//
// Run with: go run ./examples/roadmap
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"graphquery/internal/cardest"
	"graphquery/internal/crpq"
	"graphquery/internal/graph"
	"graphquery/internal/regular"
	"graphquery/internal/rpq"
	"graphquery/internal/twoway"
)

// buildOrg synthesizes an org graph: "manages" edges form a tree,
// "collab" edges connect random peers.
func buildOrg(people int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	id := func(i int) graph.NodeID { return graph.NodeID(fmt.Sprintf("emp%d", i)) }
	for i := 0; i < people; i++ {
		b.AddNode(id(i), "Employee", graph.Props{"seniority": graph.Int(int64(rng.Intn(20)))})
	}
	e := 0
	for i := 1; i < people; i++ {
		b.AddEdge(graph.EdgeID(fmt.Sprintf("m%d", e)), "manages", id(rng.Intn(i)), id(i), nil)
		e++
	}
	for i := 0; i < 3*people; i++ {
		u, v := rng.Intn(people), rng.Intn(people)
		if u == v {
			continue
		}
		b.AddEdge(graph.EdgeID(fmt.Sprintf("c%d", e)), "collab", id(u), id(v), nil)
		e++
	}
	return b.MustBuild()
}

func main() {
	g := buildOrg(120, 7)
	fmt.Printf("org graph: %d employees, %d edges\n\n", g.NumNodes(), g.NumEdges())

	// 1. Two-way navigation (Remark 9): colleagues under the same manager
	// are one step up and one step down: ~manages manages.
	peers := twoway.Pairs(g, twoway.MustParse("~manages manages"))
	fmt.Printf("same-manager pairs (incl. reflexive): %d\n", len(peers))

	// 2. Nested CRPQs (§3.1.3): the transitive closure of "mutual
	// collaboration" — inexpressible as a flat CRPQ (Example 14).
	res, err := regular.Eval(g, regular.MustParse(`
		Mutual(x, y) :- collab(x, y), collab(y, x)
		q(a, b) :- Mutual+(a, b)
	`), crpq.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pairs in the mutual-collaboration closure: %d\n", len(res.Rows))

	// 3. Worst-case-optimal joins (§7.1): collaboration triangles, with
	// both plans cross-checked.
	tri := crpq.MustParse("q(x, y, z) :- collab(x, y), collab(y, z), collab(z, x)")
	pairwise, err := crpq.Eval(g, tri, crpq.Options{})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := crpq.Compile(g, tri, nil)
	if err != nil {
		log.Fatal(err)
	}
	wcojRes, err := plan.Eval(context.Background(), crpq.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collaboration triangles: %d (plans agree: %v)\n",
		len(wcojRes.Rows), pairwise.Format(g) == wcojRes.Format(g))

	// 4. Cardinality estimation (§7.1): predicted vs actual.
	rows, err := cardest.Compare(g, []string{"manages", "collab collab", "manages+"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncardinality estimates:")
	for _, r := range rows {
		fmt.Printf("  %-16s actual %5d  estimated %8.1f  q-error %.2f\n",
			r.Query, r.Actual, r.Estimate, r.QError)
	}

	// 5. Static analysis (§7.1): containment of management-chain queries.
	a := rpq.MustParse("manages{2,4}")
	b := rpq.MustParse("manages+")
	fmt.Printf("\nmanages{2,4} ⊆ manages+ : %v\n", rpq.Contained(a, b))
	fmt.Printf("manages+ ⊆ manages{2,4} : %v\n", rpq.Contained(b, a))
}
