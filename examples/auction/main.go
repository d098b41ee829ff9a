// Auction: the paper's §5 workload — an XMark-like auction document moved
// from a Most-Fragmented relational source to a Least-Fragmented relational
// target over live SOAP endpoints, comparing the optimized exchange with
// publish&map on the same data.
package main

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"xdx"
	"xdx/internal/core"
	"xdx/internal/endpoint"
	"xdx/internal/publish"
	"xdx/internal/relstore"
	"xdx/internal/shred"
	"xdx/internal/wsdlx"
	"xdx/internal/xmark"
)

func main() {
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 500_000, Seed: 42})
	mf := core.MostFragmented(sch)
	lf := core.LeastFragmented(sch)

	// ---- Optimized data exchange over SOAP.
	srcStore, err := relstore.NewStore(mf)
	check(err)
	check(srcStore.LoadDocument(doc))
	tgtStore, err := relstore.NewStore(lf)
	check(err)

	srcURL := serve(endpoint.New("source-MF", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, nil).Handler())
	tgtURL := serve(endpoint.New("target-LF", &endpoint.RelBackend{Store: tgtStore, Speed: 1, CanCombine: true}, nil).Handler())

	agency := xdx.NewAgency()
	check(agency.Register("AuctionService", xdx.RoleSource, wsdlDoc(sch, mf, srcURL), srcURL))
	check(agency.Register("AuctionService", xdx.RoleTarget, wsdlDoc(sch, lf, tgtURL), tgtURL))

	plan, err := agency.Plan("AuctionService", xdx.PlanOptions{Algorithm: xdx.AlgGreedy})
	check(err)
	st := plan.Program.OpStats()
	fmt.Printf("MF -> LF exchange program: %d scans, %d combines, %d splits, %d writes (planned in %v)\n",
		st.Scans, st.Combines, st.Splits, st.Writes, plan.PlanTime)

	report, err := agency.Execute("AuctionService", plan, xdx.Loopback())
	check(err)
	deTotal := report.SourceTime + report.TargetTime + report.WriteTime + report.IndexTime
	fmt.Printf("optimized exchange:  shipped %8d bytes, processing %v\n", report.WireBytes, deTotal)

	// ---- Publish&map baseline on the same data.
	pmStart := time.Now()
	var buf bytes.Buffer
	pres, err := publish.Publish(srcStore, &buf)
	check(err)
	insts, err := shred.Shred(&buf, lf)
	check(err)
	pmStore, err := relstore.NewStore(lf)
	check(err)
	for _, f := range lf.Fragments {
		check(pmStore.Load(insts[f.Name]))
	}
	check(pmStore.BuildIndexes())
	fmt.Printf("publish&map:         shipped %8d bytes, processing %v (publish %v + map %v)\n",
		pres.Bytes, time.Since(pmStart), pres.QueryTime+pres.TagTime, time.Since(pmStart)-pres.QueryTime-pres.TagTime)

	// ---- The two targets hold identical data.
	a, b := snapshot(tgtStore), snapshot(pmStore)
	if a == b {
		fmt.Println("verified: optimized exchange and publish&map produced identical target databases")
	} else {
		log.Fatalf("target databases differ!\nDE: %s\nPM: %s", a, b)
	}
}

func snapshot(st *relstore.Store) string {
	insts := map[string]*core.Instance{}
	for _, f := range st.Layout.Fragments {
		in, err := st.ScanFragment(f.Name)
		check(err)
		insts[f.Name] = in
	}
	doc, err := core.Document(st.Layout, insts)
	check(err)
	var buf bytes.Buffer
	check(xdx.WriteDocument(&buf, doc))
	return buf.String()
}

func wsdlDoc(sch *xdx.Schema, fr *core.Fragmentation, addr string) []byte {
	d := &wsdlx.Definitions{
		Name: "Auction", TargetNamespace: "http://auction.wsdl",
		ServiceName: "AuctionService", PortName: "AuctionPort", Address: addr,
		Schema: sch, Fragmentations: []*core.Fragmentation{fr},
	}
	data, err := d.Marshal()
	check(err)
	return data
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
