package bench

import (
	"fmt"
	"strings"
	"testing"
)

// quickOpts keeps test documents small; the full sizes run in cmd/xdxbench.
// The zero Link requests the calibrated proportional link. Small documents
// mean sub-millisecond phases, so the one check still on times — Figure 9's
// saving band — takes the best of several repetitions to survive scheduler
// noise.
func quickOpts() Options {
	return Options{Sizes: []int64{60_000, 150_000}, Seed: 1, Repeat: 5}
}

func measureOnce(t *testing.T) *Results {
	t.Helper()
	res, err := Measure(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMeasureShapes(t *testing.T) {
	res := measureOnce(t)
	for _, size := range res.Options.Sizes {
		// The shapes are asserted on the counts behind the times, which
		// repeat exactly; the times themselves are xdxbench's to report.
		// Table 1 shape: LF->LF cheapest of the four scenarios — it has no
		// Combine or Split to run, MF->LF has.
		if res.Step1[key{"LF->LF", size}] <= 0 || res.Step1[key{"MF->LF", size}] <= 0 {
			t.Fatalf("step1 missing for size %d", size)
		}
		if lflf, mflf := res.Step1OpRows[key{"LF->LF", size}], res.Step1OpRows[key{"MF->LF", size}]; lflf >= mflf {
			t.Errorf("size %d: LF->LF restructures %d rows, MF->LF %d — LF->LF should do less", size, lflf, mflf)
		}
		// Table 2 shape: publishing from LF joins fewer rows than from MF.
		if lf, mf := res.PublishJoins[key{"LF", size}], res.PublishJoins[key{"MF", size}]; lf >= mf {
			t.Errorf("size %d: publish from LF joins %d rows, from MF %d — LF should join fewer", size, lf, mf)
		}
		// Table 3 shape: the LF target ships least; the MF target ships
		// every element as a keyed record, so it may exceed the plain
		// document slightly (the paper's feeds were leaner) but not by
		// much.
		if res.ShipBytesDE[key{"LF", size}] > res.DocBytes[key{"doc", size}] {
			t.Errorf("size %d: DE->LF ships %d > document %d", size,
				res.ShipBytesDE[key{"LF", size}], res.DocBytes[key{"doc", size}])
		}
		if res.ShipBytesDE[key{"LF", size}] > res.ShipBytesDE[key{"MF", size}] {
			t.Errorf("size %d: LF target should ship less than MF target", size)
		}
		if float64(res.ShipBytesDE[key{"MF", size}]) > 1.4*float64(res.DocBytes[key{"doc", size}]) {
			t.Errorf("size %d: DE->MF ships %d, far above document %d", size,
				res.ShipBytesDE[key{"MF", size}], res.DocBytes[key{"doc", size}])
		}
		// Table 4 shape: the MF target loads (and indexes) more rows than LF.
		if mf, lf := res.LoadRows[key{"MF", size}], res.LoadRows[key{"LF", size}]; mf <= lf {
			t.Errorf("size %d: MF target loads %d rows, LF %d — MF should load more", size, mf, lf)
		}
	}
	// Larger documents do more work.
	small, large := res.Options.Sizes[0], res.Options.Sizes[1]
	if res.Step1OpRows[key{"MF->LF", large}] <= res.Step1OpRows[key{"MF->LF", small}] {
		t.Errorf("step1 work did not grow with document size")
	}
}

func TestEndToEndSavingBand(t *testing.T) {
	// Figure 9's headline: DE saves end-to-end in every scenario. The
	// paper band is 23–43% on its hardware; with the modeled link the
	// communication term dominates similarly, so require a positive saving
	// and an upper sanity bound.
	res := measureOnce(t)
	size := res.Options.Sizes[len(res.Options.Sizes)-1]
	for _, scen := range Scenarios {
		srcName, tgtName := scen[:2], scen[4:]
		store := res.LoadTime[key{tgtName, size}] + res.IndexTime[key{tgtName, size}]
		de := res.Step1[key{scen, size}] + res.CommDE(tgtName, size) + store
		pm := res.PublishTime[key{srcName, size}] + res.CommPM(size) + res.ShredTime[key{tgtName, size}] + store
		if pm <= 0 {
			t.Fatalf("%s: publish&map took %v", scen, pm)
		}
		s := 1 - de.Seconds()/pm.Seconds()
		if s <= 0 {
			t.Errorf("%s: DE saving %.2f not positive", scen, s)
		}
		if s > 0.9 {
			t.Errorf("%s: DE saving %.2f implausibly large", scen, s)
		}
	}
}

func TestTableRendering(t *testing.T) {
	res := measureOnce(t)
	for name, tab := range map[string]*Table{
		"t1": Table1(res),
		"t2": Table2(res),
		"t3": Table3(res),
		"t4": Table4(res),
		"f9": Figure9(res),
	} {
		out := tab.String()
		if len(out) < 50 {
			t.Errorf("%s: output too short:\n%s", name, out)
		}
		if !strings.Contains(out, "0.") && !strings.Contains(out, "1.") {
			t.Errorf("%s: no numbers rendered:\n%s", name, out)
		}
	}
	t2 := Table2(res).String()
	if !strings.Contains(t2, "+") {
		t.Errorf("table 2 should render value pairs:\n%s", t2)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		Title:  "t",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", `has,comma`}, {"2", `has"quote`}},
		Notes:  []string{"a note"},
	}
	out := tab.CSV()
	want := "a,b\n1,\"has,comma\"\n2,\"has\"\"quote\"\n# a note\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}

func TestFigure10And11(t *testing.T) {
	f10, err := Figure10(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(f10.Rows) != 2 {
		t.Fatalf("figure 10 rows = %d", len(f10.Rows))
	}
	// Publish total is normalized to 1.
	if f10.Rows[1][3] != "1.000" {
		t.Errorf("publish total = %s, want 1.000", f10.Rows[1][3])
	}
	f11, err := Figure11(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(f11.Notes) == 0 || !strings.Contains(f11.Notes[0], "reduction") {
		t.Errorf("figure 11 notes missing reduction: %v", f11.Notes)
	}
}

func TestRecommendExtension(t *testing.T) {
	tab, err := Recommend(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("recommend rows = %d, want 4", len(tab.Rows))
	}
	// The recommended layout must be at least as cheap as every baseline.
	parse := func(s string) float64 {
		var f float64
		if _, err := fmt.Sscanf(s, "%f", &f); err != nil {
			t.Fatalf("bad cost %q", s)
		}
		return f
	}
	recCost := parse(tab.Rows[3][2])
	for i := 0; i < 3; i++ {
		if recCost > parse(tab.Rows[i][2])+1e-9 {
			t.Errorf("recommended cost %v worse than %s", recCost, tab.Rows[i][0])
		}
	}
}

func TestTable5(t *testing.T) {
	tab, err := Table5(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("table 5 rows = %d, want 5", len(tab.Rows))
	}
	if tab.Rows[0][0] != "5/1" || tab.Rows[4][0] != "1/5" {
		t.Errorf("speed ratios wrong: %v", tab.Rows)
	}
}
