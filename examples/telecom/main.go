// Telecom: the paper's §1.1 motivating scenario over live SOAP endpoints.
//
// A sales-and-ordering system stores customer orders relationally (schema
// S); a provisioning system consumes them into an LDAP directory (schema
// T). The directory is a dumb client — it cannot combine fragments — so
// the optimizer places every combine at the source. The exchange runs over
// real HTTP with the discovery agency in the middle.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"

	"xdx"
)

const customerXML = `<Customer><CustName>Ann</CustName>` +
	`<Order><Service><ServiceName>local</ServiceName>` +
	`<Line><TelNo>555-0001</TelNo><Switch><SwitchID>sw1</SwitchID></Switch>` +
	`<Feature><FeatureID>callerID</FeatureID></Feature>` +
	`<Feature><FeatureID>voicemail</FeatureID></Feature></Line>` +
	`<Line><TelNo>555-0002</TelNo><Switch><SwitchID>sw2</SwitchID></Switch></Line>` +
	`</Service></Order>` +
	`<Order><Service><ServiceName>long-distance</ServiceName>` +
	`<Line><TelNo>555-0003</TelNo><Switch><SwitchID>sw1</SwitchID></Switch>` +
	`<Feature><FeatureID>callerID</FeatureID></Feature></Line>` +
	`</Service></Order></Customer>`

func main() {
	sch, err := xdx.ParseDTD(`
		<!ELEMENT Customer (CustName, Order*)>
		<!ELEMENT Order (Service)>
		<!ELEMENT Service (ServiceName, Line*)>
		<!ELEMENT Line (TelNo, Switch, Feature*)>
		<!ELEMENT Switch (SwitchID)>
		<!ELEMENT Feature (FeatureID)>
	`)
	check(err)
	sFrag, err := xdx.FromPartition(sch, "S-fragmentation", [][]string{
		{"Customer", "CustName"},
		{"Order"},
		{"Service", "ServiceName"},
		{"Line", "TelNo", "Feature", "FeatureID"}, // the denormalized LINE_FEATURE relation
		{"Switch", "SwitchID"},
	})
	check(err)
	tFrag, err := xdx.FromPartition(sch, "T-fragmentation", [][]string{
		{"Customer", "CustName"},
		{"Order", "Service", "ServiceName"},
		{"Line", "TelNo", "Switch", "SwitchID"},
		{"Feature", "FeatureID"},
	})
	check(err)

	// Source: relational store loaded with customer data.
	srcStore, err := xdx.NewRelStore(sFrag)
	check(err)
	doc, err := xdx.ParseDocument(strings.NewReader(customerXML))
	check(err)
	xdx.AssignIDs(doc)
	check(srcStore.LoadDocument(doc))

	// Target: LDAP directory (a consumer that cannot combine).
	dirStore := xdx.NewLDAPStore(tFrag)

	srcURL := serve(xdx.NewEndpoint("sales", &xdx.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, nil).Handler())
	tgtURL := serve(xdx.NewEndpoint("provisioning", &xdx.LDAPBackend{Store: dirStore, Speed: 1}, nil).Handler())
	fmt.Printf("sales endpoint:        %s\nprovisioning endpoint: %s\n\n", srcURL, tgtURL)

	// Register both parties at the discovery agency with WSDL documents
	// carrying the fragmentation extension.
	agency := xdx.NewAgency()
	check(agency.Register("CustomerInfoService", xdx.RoleSource, wsdlDoc(sch, sFrag, srcURL), srcURL))
	check(agency.Register("CustomerInfoService", xdx.RoleTarget, wsdlDoc(sch, tFrag, tgtURL), tgtURL))

	plan, err := agency.Plan("CustomerInfoService", xdx.PlanOptions{Algorithm: xdx.AlgOptimal})
	check(err)
	fmt.Println("Agency-generated program:")
	for _, op := range plan.Program.Ops {
		fmt.Printf("  %-55s @ %s\n", op, plan.Assign[op.ID])
	}

	report, err := agency.Execute("CustomerInfoService", plan, xdx.Loopback())
	check(err)
	fmt.Printf("\nExchange done: %d bytes shipped, source %.2fms, write %.2fms\n",
		report.WireBytes, report.SourceTime.Seconds()*1000, report.WriteTime.Seconds()*1000)

	fmt.Println("\nProvisioning directory contents:")
	for _, class := range dirStore.Dir.Classes() {
		for _, e := range dirStore.Dir.Search("", class) {
			fmt.Printf("  dn=%-12s objectclass=%-10s %v\n", e.DN, e.Class, e.Attrs)
		}
	}
}

func wsdlDoc(sch *xdx.Schema, fr *xdx.Fragmentation, addr string) []byte {
	d := &xdx.Definitions{
		Name:            "CustomerInfo",
		TargetNamespace: "http://customers.wsdl",
		Documentation:   "Provides customer information",
		ServiceName:     "CustomerInfoService",
		PortName:        "CustomerInfoPort",
		Address:         addr,
		Schema:          sch,
		Fragmentations:  []*xdx.Fragmentation{fr},
	}
	data, err := d.Marshal()
	check(err)
	return data
}

// serve starts an HTTP server on an ephemeral localhost port.
func serve(h http.Handler) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go http.Serve(ln, h)
	return "http://" + ln.Addr().String()
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
