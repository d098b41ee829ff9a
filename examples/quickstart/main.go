// Quickstart: the smallest end-to-end fragmented exchange, entirely
// in-process through the public API.
//
// A source system stores customer data in the paper's relational schema S;
// a target expects the T-fragmentation. We derive the mapping, let the
// optimizer build and place a data-transfer program, execute it, and show
// that the target receives exactly the source's document.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"xdx"
)

const customerXML = `<Customer><CustName>Ann</CustName>` +
	`<Order><Service><ServiceName>local</ServiceName>` +
	`<Line><TelNo>555-0001</TelNo><Switch><SwitchID>sw1</SwitchID></Switch>` +
	`<Feature><FeatureID>callerID</FeatureID></Feature></Line>` +
	`</Service></Order></Customer>`

func main() {
	// 1. The agreed XML Schema (Figure 1 of the paper).
	sch, err := xdx.ParseDTD(`
		<!ELEMENT Customer (CustName, Order*)>
		<!ELEMENT Order (Service)>
		<!ELEMENT Service (ServiceName, Line*)>
		<!ELEMENT Line (TelNo, Switch, Feature*)>
		<!ELEMENT Switch (SwitchID)>
		<!ELEMENT Feature (FeatureID)>
	`)
	check(err)

	// 2. The two systems' fragmentations: S mirrors the relational source,
	// T the provisioning target (§1.1).
	source, err := xdx.FromPartition(sch, "S-fragmentation", [][]string{
		{"Customer", "CustName"},
		{"Order"},
		{"Service", "ServiceName"},
		{"Line", "TelNo", "Feature", "FeatureID"},
		{"Switch", "SwitchID"},
	})
	check(err)
	target, err := xdx.FromPartition(sch, "T-fragmentation", [][]string{
		{"Customer", "CustName"},
		{"Order", "Service", "ServiceName"},
		{"Line", "TelNo", "Switch", "SwitchID"},
		{"Feature", "FeatureID"},
	})
	check(err)

	// 3. Derive the mapping and optimize a data-transfer program.
	mapping, err := xdx.NewMapping(source, target)
	check(err)
	card, bytes := map[string]float64{}, map[string]float64{}
	for _, e := range sch.Names() {
		card[e], bytes[e] = 10, 20
	}
	model := xdx.NewModel(xdx.NewStatsProvider(card, bytes, 1, true))
	result, _, err := xdx.Optimal(mapping, model)
	check(err)

	fmt.Println("Optimized data-transfer program (Figure 5 of the paper):")
	fmt.Print(result.Program)
	fmt.Printf("estimated cost: %.0f\n\n", result.Cost)
	for _, op := range result.Program.Ops {
		fmt.Printf("  %-55s @ %s\n", op, result.Assign[op.ID])
	}

	// 4. Execute it over real data.
	doc, err := xdx.ParseDocument(strings.NewReader(customerXML))
	check(err)
	xdx.AssignIDs(doc)
	sources, err := xdx.FromDocument(source, doc)
	check(err)
	exec, err := xdx.Execute(result.Program, sch, sources)
	check(err)

	fmt.Printf("\nTarget received %d fragment instances:\n", len(exec.Written))
	for name, in := range exec.Written {
		fmt.Printf("  %-35s %d records\n", name, in.Rows())
	}
	fmt.Println("\nPer-operation breakdown:")
	fmt.Print(xdx.SummarizeTraces(exec.Traces))

	// 5. Prove the document survived the fragmented transfer.
	back, err := xdx.Document(target, exec.Written)
	check(err)
	fmt.Println("\nReassembled at target:")
	check(xdx.WriteDocument(os.Stdout, back))
	fmt.Println()
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
