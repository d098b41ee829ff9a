// Negotiation: WSDL fragmentation registration through the agency's own
// SOAP interface — the full Figure 2 deployment with the middle-ware as a
// remote service.
//
// Two endpoints publish WSDL documents extended with <fragmentation>
// declarations; the agency is driven purely through SOAP (<Register>,
// <Plan>, <Exchange>), mirroring how third-party systems would negotiate an
// exchange without linking this library.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"

	"xdx"
	"xdx/internal/core"
	"xdx/internal/endpoint"
	"xdx/internal/relstore"
	"xdx/internal/soap"
	"xdx/internal/wsdlx"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

func main() {
	sch := xmark.Schema()
	lf := core.LeastFragmented(sch)
	mf := core.MostFragmented(sch)
	doc := xmark.Generate(xmark.Config{TargetBytes: 120_000, Seed: 7})

	srcStore, err := relstore.NewStore(lf)
	check(err)
	check(srcStore.LoadDocument(doc))
	tgtStore, err := relstore.NewStore(mf)
	check(err)

	srcURL := serve(endpoint.New("src", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, nil).Handler())
	tgtURL := serve(endpoint.New("tgt", &endpoint.RelBackend{Store: tgtStore, Speed: 1, CanCombine: true}, nil).Handler())

	// The agency itself runs as a SOAP service.
	agencyURL := serve(xdx.NewAgencyService(xdx.NewAgency(), xdx.Loopback()).Handler())
	client := &soap.Client{URL: agencyURL}

	// Step 1 (Figure 2): register fragmentations via SOAP.
	for _, reg := range []struct {
		role string
		fr   *core.Fragmentation
		url  string
	}{
		{"source", lf, srcURL},
		{"target", mf, tgtURL},
	} {
		req := &xmltree.Node{Name: "Register"}
		req.SetAttr("service", "AuctionService")
		req.SetAttr("role", reg.role)
		req.SetAttr("url", reg.url)
		defs := &wsdlx.Definitions{
			Name: "Auction", TargetNamespace: "http://auction.wsdl",
			ServiceName: "AuctionService", PortName: "p", Address: reg.url,
			Schema: sch, Fragmentations: []*core.Fragmentation{reg.fr},
		}
		data, err := defs.Marshal()
		check(err)
		wsdlTree, err := xmltree.Parse(strings.NewReader(string(data)))
		check(err)
		req.AddKid(wsdlTree)
		resp, err := client.Call("Register", req)
		check(err)
		fmt.Printf("registered %s (%s): %s fragments=%d\n", reg.role, reg.url, reg.fr.Name, reg.fr.Len())
		_ = resp
	}

	// Step 2+3: ask the agency for a plan and inspect the negotiated
	// program.
	planReq := &xmltree.Node{Name: "Plan"}
	planReq.SetAttr("service", "AuctionService")
	planReq.SetAttr("algorithm", "greedy")
	planResp, err := client.Call("Plan", planReq)
	check(err)
	cost, _ := planResp.Attr("estimatedCost")
	ms, _ := planResp.Attr("planMillis")
	fmt.Printf("\nagency planned the LF -> MF transfer: estimated cost %s (in %s ms)\n", cost, ms)
	for _, k := range planResp.Kids {
		if k.Name != "program" {
			continue
		}
		for _, section := range k.Kids {
			if section.Name != "ops" {
				continue
			}
			fmt.Printf("program has %d operations:\n", len(section.Kids))
			for _, op := range section.Kids {
				kind, _ := op.Attr("kind")
				out, _ := op.Attr("out")
				loc, _ := op.Attr("loc")
				fmt.Printf("  %-8s @ %s  %s\n", kind, loc, truncate(out, 60))
			}
		}
	}

	// Step 4: run the exchange through the agency.
	exReq := &xmltree.Node{Name: "Exchange"}
	exReq.SetAttr("service", "AuctionService")
	exResp, err := client.Call("Exchange", exReq)
	check(err)
	bytesShipped, _ := exResp.Attr("wireBytes")
	fmt.Printf("\nexchange complete: %s bytes shipped; target now holds %d rows in %d tables\n",
		bytesShipped, tgtStore.Rows(), len(tgtStore.Tables()))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

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
