// Recommend: the paper's §7 future work — "derive the best fragmentation
// for a system based on its internal indices and data structures" — as a
// working feature.
//
// A target system is about to join an exchange with an MF-fragmented
// auction source. We let the library recommend the target's fragmentation
// under the same cost model the optimizer uses, compare it with the
// canonical layouts, and render the winning plan as Graphviz dot.
package main

import (
	"fmt"
	"log"
	"os"

	"xdx"
	"xdx/internal/xmark"
)

func main() {
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 150_000, Seed: 11})
	card, bytes := xmark.Stats(doc)
	model := xdx.NewModel(xdx.NewStatsProvider(card, bytes, 1, true))

	// The source is fixed: the paper's Most-Fragmented relational layout.
	src := xdx.MostFragmented(sch)

	fmt.Println("Baseline target layouts (greedy exchange cost from an MF source):")
	for _, tgt := range []*xdx.Fragmentation{xdx.Trivial(sch), xdx.LeastFragmented(sch), xdx.MostFragmented(sch)} {
		m, err := xdx.NewMapping(src, tgt)
		check(err)
		res, err := xdx.Greedy(m, model)
		check(err)
		fmt.Printf("  %-10s %2d fragments   cost %12.0f\n", tgt.Name, tgt.Len(), res.Cost)
	}

	rec, err := xdx.RecommendTarget(src, model, xdx.RecommendOptions{Candidates: 25, Seed: 11})
	check(err)
	fmt.Printf("\nRecommended: %d fragments, cost %.0f (%d layouts evaluated)\n",
		rec.Fragmentation.Len(), rec.Cost, rec.Evaluated)
	for _, f := range rec.Fragmentation.Fragments {
		fmt.Printf("  fragment rooted at %-16s (%d elements)\n", f.Root, f.Size())
	}

	// Show the plan the recommendation produces, as Graphviz dot.
	m, err := xdx.NewMapping(src, rec.Fragmentation)
	check(err)
	res, err := xdx.Greedy(m, model)
	check(err)
	st := res.Program.OpStats()
	fmt.Printf("\nWinning program: %d scans, %d combines, %d splits, %d writes\n",
		st.Scans, st.Combines, st.Splits, st.Writes)
	if err := os.WriteFile("recommended_plan.dot", []byte(res.Program.DOT(res.Assign)), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan written to recommended_plan.dot (render with: dot -Tsvg recommended_plan.dot)")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
