// Command xdxbench regenerates the paper's evaluation (§5): Tables 1–5 and
// Figures 9–11. Real-measurement experiments (Tables 1–4, Figure 9) run the
// relational stores, publisher, shredder and modeled WAN link; simulator
// experiments (Figures 10–11, Table 5) run the §5.4 simulator.
//
// Usage:
//
//	xdxbench -all            # everything at paper sizes (2.5/12.5/25 MB)
//	xdxbench -all -quick     # everything at reduced sizes
//	xdxbench -table 1        # a single table (1-5)
//	xdxbench -figure 9       # a single figure (9-11)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"xdx/internal/bench"
	"xdx/internal/core"
	"xdx/internal/xmark"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-5)")
	figure := flag.Int("figure", 0, "regenerate one figure (9-11)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	quick := flag.Bool("quick", false, "use reduced document sizes and fewer simulator runs")
	seed := flag.Int64("seed", 1, "workload seed")
	recommend := flag.Bool("recommend", false, "run the fragmentation-recommendation extension (§7 future work)")
	plan := flag.String("plan", "", "print the auction-schema exchange program for SRC:TGT (layouts MF or LF)")
	dot := flag.Bool("dot", false, "with -plan, emit Graphviz dot instead of text")
	csvDir := flag.String("csv", "", "also write each table/figure as CSV into this directory")
	flag.Parse()

	if *plan != "" {
		if err := printPlan(os.Stdout, *plan, *dot); err != nil {
			fatal(err)
		}
		return
	}
	if !*all && *table == 0 && *figure == 0 && !*recommend {
		flag.Usage()
		os.Exit(2)
	}
	opts := bench.Options{Seed: *seed}
	runs := 10
	simSeeds := 10
	if *quick {
		opts.Sizes = []int64{100_000, 500_000, 1_000_000}
		runs = 3
		simSeeds = 3
	}

	needReal := *all || (*table >= 1 && *table <= 4) || *figure == 9
	var res *bench.Results
	if needReal {
		fmt.Fprintln(os.Stderr, "measuring real exchange experiments (this generates and processes the documents)...")
		var err error
		res, err = bench.Measure(opts)
		if err != nil {
			fatal(err)
		}
	}
	emit := func(id string, t *bench.Table, err error) {
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*csvDir, id+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	if *all || *table == 1 {
		emit("table1", bench.Table1(res), nil)
	}
	if *all || *table == 2 {
		emit("table2", bench.Table2(res), nil)
	}
	if *all || *table == 3 {
		emit("table3", bench.Table3(res), nil)
	}
	if *all || *table == 4 {
		emit("table4", bench.Table4(res), nil)
	}
	if *all || *figure == 9 {
		emit("figure9", bench.Figure9(res), nil)
	}
	if *all || *figure == 10 {
		t, err := bench.Figure10(simSeeds)
		emit("figure10", t, err)
	}
	if *all || *figure == 11 {
		t, err := bench.Figure11(simSeeds)
		emit("figure11", t, err)
	}
	if *all || *table == 5 {
		fmt.Fprintln(os.Stderr, "running Table 5 (exhaustive optimizer; this is the slow one)...")
		t, err := bench.Table5(runs)
		emit("table5", t, err)
	}
	if *all || *recommend {
		t, err := bench.Recommend(*seed)
		emit("recommend", t, err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xdxbench:", err)
	os.Exit(1)
}

// printPlan builds and prints the optimized exchange program for an
// auction-schema scenario like "MF:LF".
func printPlan(w io.Writer, spec string, dot bool) error {
	parts := strings.Split(spec, ":")
	if len(parts) != 2 {
		return fmt.Errorf("plan spec %q must be SRC:TGT, e.g. MF:LF", spec)
	}
	sch := xmark.Schema()
	layouts := map[string]*core.Fragmentation{
		"MF": core.MostFragmented(sch),
		"LF": core.LeastFragmented(sch),
	}
	src, ok := layouts[parts[0]]
	if !ok {
		return fmt.Errorf("unknown layout %q", parts[0])
	}
	tgt, ok := layouts[parts[1]]
	if !ok {
		return fmt.Errorf("unknown layout %q", parts[1])
	}
	m, err := core.NewMapping(src, tgt)
	if err != nil {
		return err
	}
	doc := xmark.Generate(xmark.Config{TargetBytes: 100_000, Seed: 1})
	card, bytes := xmark.Stats(doc)
	res, err := core.Greedy(m, core.NewModel(core.NewStatsProvider(card, bytes, 1, true)))
	if err != nil {
		return err
	}
	if dot {
		fmt.Fprint(w, res.Program.DOT(res.Assign))
		return nil
	}
	fmt.Fprintf(w, "%s -> %s exchange program (greedy, estimated cost %.0f):\n", parts[0], parts[1], res.Cost)
	for _, op := range res.Program.Ops {
		fmt.Fprintf(w, "  @%s %s\n", res.Assign[op.ID], op)
	}
	return nil
}
