// Socialnetwork: CRPQ joins, wildcard RPQs, and path modes over a
// preferential-attachment social graph — the "entities as nodes,
// relationships as edges" workload of the paper's introduction.
//
// Run with: go run ./examples/socialnetwork
package main

import (
	"fmt"
	"log"

	"graphquery/internal/core"
	"graphquery/internal/crpq"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
)

func main() {
	g := gen.Social(200, 42) // Person nodes, knows/follows edges
	eng := core.New(g)
	fmt.Printf("social graph: %d people, %d relationships\n\n", g.NumNodes(), g.NumEdges())

	// 1. Reachability with a wildcard RPQ (Remark 11): who can p150 reach
	// through any mix of relationships? (knows-edges point from newer to
	// older members, so late joiners reach far.)
	pairs, err := eng.Pairs("_*")
	if err != nil {
		log.Fatal(err)
	}
	reach := 0
	for _, pr := range pairs {
		if pr[0] == "p150" {
			reach++
		}
	}
	fmt.Printf("p150 reaches %d people through any relationship chain\n", reach)

	// 2. A CRPQ join (Section 3.1.2): mutual-follow pairs.
	q := crpq.MustParse("q(x, y) :- follows(x, y), follows(y, x)")
	rows, err := crpq.EvalPlan(g, q, crpq.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mutual-follow pairs: %d\n", len(rows.Rows))
	for i, row := range rows.Rows {
		if i == 5 {
			fmt.Println("  …")
			break
		}
		fmt.Printf("  %s ↔ %s\n", row[0].Format(g), row[1].Format(g))
	}

	// 3. Shortest introduction chains (ℓ-CRPQ with list variables,
	// Example 17 style): the chain of knows-edges from p7 to p0.
	res, err := eng.Paths("(knows^z)+", "p7", "p0", eval.Shortest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nshortest introduction chain p7 → p0:")
	for _, r := range res {
		fmt.Println(" ", r.Format(g))
	}

	// 4. Simple vs all paths (Section 6.3 path modes): cycles in the
	// knows graph inflate the unrestricted count; simple mode excludes
	// them. Endpoints come from the first knows-edge for robustness.
	var src, dst graph.NodeID
	for i := 0; i < g.NumEdges(); i++ {
		if e := g.Edge(i); e.Label == "knows" {
			src, dst = g.Node(e.Src).ID, g.Node(e.Tgt).ID
			break
		}
	}
	simple, err := eng.Paths("(knows | follows){1,4}", src, dst, eval.Simple)
	if err != nil {
		log.Fatal(err)
	}
	all, err := eng.Paths("(knows | follows){1,4}", src, dst, eval.All)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npaths %s → %s up to length 4: %d total, %d simple\n",
		src, dst, len(all), len(simple))
}
