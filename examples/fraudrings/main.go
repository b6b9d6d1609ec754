// Fraudrings: money-laundering analytics over a synthetic transfer network,
// the workload the paper's running bank example motivates. It uses dl-RPQs
// for amount- and date-filtered paths, path modes for ring detection, and
// PMRs to represent the (possibly infinite) evidence sets compactly.
//
// Run with: go run ./examples/fraudrings
package main

import (
	"fmt"
	"log"
	"math/rand"

	"graphquery/internal/dlrpq"
	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/pmr"
	"graphquery/internal/rpq"
)

// buildNetwork synthesizes a transfer network: honest accounts form a
// sparse random graph; a laundering ring cycles money through a small set
// of mule accounts in increasing-date order with amounts just under the
// reporting threshold.
func buildNetwork(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	const honest = 40
	for i := 0; i < honest; i++ {
		b.AddNode(graph.NodeID(fmt.Sprintf("acc%d", i)), "Account",
			graph.Props{"isBlocked": graph.Str("no")})
	}
	mules := []graph.NodeID{"muleA", "muleB", "muleC", "muleD"}
	for _, m := range mules {
		b.AddNode(m, "Account", graph.Props{"isBlocked": graph.Str("no")})
	}
	e := 0
	addTransfer := func(src, tgt graph.NodeID, amount float64, day int) {
		b.AddEdge(graph.EdgeID(fmt.Sprintf("t%d", e)), "Transfer", src, tgt, graph.Props{
			"amount": graph.Float(amount),
			"day":    graph.Int(int64(day)),
		})
		e++
	}
	// Honest traffic: random transfers with random dates and amounts.
	for i := 0; i < 3*honest; i++ {
		s := graph.NodeID(fmt.Sprintf("acc%d", rng.Intn(honest)))
		t := graph.NodeID(fmt.Sprintf("acc%d", rng.Intn(honest)))
		if s == t {
			continue
		}
		addTransfer(s, t, 1e4+rng.Float64()*2e6, rng.Intn(300))
	}
	// The ring: acc0 → muleA → muleB → muleC → muleD → acc0, structured
	// amounts (just under 10k) on consecutive days.
	chain := []graph.NodeID{"acc0", "muleA", "muleB", "muleC", "muleD", "acc0"}
	for i := 0; i+1 < len(chain); i++ {
		addTransfer(chain[i], chain[i+1], 9500+float64(i), 100+i)
	}
	return b.MustBuild()
}

func main() {
	g := buildNetwork(2025)
	fmt.Printf("network: %d accounts, %d transfers\n\n", g.NumNodes(), g.NumEdges())

	// 1. Structuring detection (dl-RPQ, Section 3.2.1): chains of 3+
	// transfers, each under the 10k reporting threshold, with strictly
	// increasing days — the temporal pattern Example 21 makes expressible
	// for edges.
	structured := dlrpq.MustParse(
		"() [Transfer^z][amount < 10000][x := day] " +
			"{ () [Transfer^z][amount < 10000][day > x][x := day] }{2,} ()")
	fmt.Println("structuring chains (≥3 small transfers on increasing days):")
	found := 0
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			res, err := dlrpq.EvalBetween(g, structured, u, v, eval.All, dlrpq.Options{MaxLen: 5})
			if err != nil {
				log.Fatal(err)
			}
			for _, pb := range res {
				if pb.Path.Len() >= 4 { // report only the longest evidence
					fmt.Printf("  %s\n", pb.Path.Format(g))
					found++
				}
			}
		}
	}
	if found == 0 {
		fmt.Println("  none (unexpected: the planted ring should appear)")
	}

	// 2. Ring detection with path modes (Section 3.1.5): trails from an
	// account back to itself of length ≥ 4.
	fmt.Println("\ntransfer rings through acc0 (trail mode):")
	acc0 := g.MustNode("acc0")
	rings, err := lrpq.EvalBetween(g, lrpq.MustParse("Transfer{4,6}"), acc0, acc0, eval.Trail, lrpq.Options{Limit: 3})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rings {
		fmt.Printf("  %s\n", r.Path.Format(g))
	}

	// 3. Evidence sets as PMRs (Section 6.4): all transfer paths between
	// acc0 and muleD, represented without enumeration.
	r, err := pmr.FromKernel(eval.CompileProduct(g, rpq.MustParse("Transfer+")).Kernel(), acc0, g.MustNode("muleD"), nil)
	if err != nil {
		log.Fatal(err)
	}
	count, infinite := r.Cardinality()
	if infinite {
		fmt.Printf("\nacc0 → muleD evidence: infinitely many transfer paths, PMR size %d\n", r.Size())
	} else {
		fmt.Printf("\nacc0 → muleD evidence: %s transfer paths, PMR size %d\n", count, r.Size())
	}
	fmt.Println("sample evidence paths:")
	evidence, err := r.Enumerate(3, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range evidence {
		fmt.Printf("  %s\n", p.Format(g))
	}
}
