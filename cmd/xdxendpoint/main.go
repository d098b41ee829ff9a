// Command xdxendpoint hosts one system of a data exchange: a relational
// store laid out per a fragmentation of the auction schema, served over
// SOAP. Point two of these (a loaded source and an empty target) at an
// xdxd agency to run a distributed exchange.
//
// Usage:
//
//	xdxendpoint -listen :9001 -layout LF -data auction.xml   # source
//	xdxendpoint -listen :9002 -layout MF                     # empty target
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"xdx/internal/core"
	"xdx/internal/durable"
	"xdx/internal/endpoint"
	"xdx/internal/obs"
	"xdx/internal/relstore"
	"xdx/internal/soap"
	"xdx/internal/wsdlx"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

func main() {
	listen := flag.String("listen", ":9001", "listen address")
	layoutName := flag.String("layout", "LF", "fragmentation layout: MF or LF")
	data := flag.String("data", "", "XML document to load (empty = start empty)")
	name := flag.String("name", "endpoint", "endpoint name")
	speed := flag.Float64("speed", 1, "relative processing speed reported to cost probes")
	dumb := flag.Bool("dumb", false, "refuse to run Combine (dumb client)")
	walDir := flag.String("wal-dir", "", "directory for the session write-ahead log; on start, journaled sessions are recovered so interrupted exchanges resume (empty = memory-only)")
	fsyncPolicy := flag.String("fsync", "batch", "WAL sync policy: batch (group commit: a chunk is acked only after its group's fsync) or off (the same groups, no fsync)")
	snapshotEvery := flag.Int("snapshot-every", 256, "WAL appends after a compaction before the next is considered; it runs once ended sessions hold at least as many WAL bytes as live ones (0 = never compact)")
	batchFrames := flag.Int("batch-frames", 0, "max WAL frames per commit group (0 = 256)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address (empty = off)")
	verbose := flag.Bool("v", false, "log request and execution activity to stderr")
	flag.Parse()
	policy, err := durable.ParseFsync(*fsyncPolicy)
	if err != nil {
		log.Fatal("xdxendpoint: ", err)
	}

	sch := xmark.Schema()
	var layout *core.Fragmentation
	switch *layoutName {
	case "MF":
		layout = core.MostFragmented(sch)
	case "LF":
		layout = core.LeastFragmented(sch)
	default:
		log.Fatalf("xdxendpoint: unknown layout %q (want MF or LF)", *layoutName)
	}
	store, err := relstore.NewStore(layout)
	if err != nil {
		log.Fatal("xdxendpoint: ", err)
	}
	if *data != "" {
		f, err := os.Open(*data)
		if err != nil {
			log.Fatal("xdxendpoint: ", err)
		}
		doc, err := xmltree.Parse(f)
		f.Close()
		if err != nil {
			log.Fatal("xdxendpoint: parse data: ", err)
		}
		core.AssignIDs(doc)
		if err := store.LoadDocument(doc); err != nil {
			log.Fatal("xdxendpoint: load: ", err)
		}
		log.Printf("xdxendpoint: loaded %d rows from %s", store.Rows(), *data)
	}
	defs := &wsdlx.Definitions{
		Name:            "Auction",
		TargetNamespace: "http://auction.wsdl",
		ServiceName:     "AuctionService",
		PortName:        "AuctionPort",
		Address:         "http://" + *listen + "/soap",
		Schema:          sch,
		Fragmentations:  []*core.Fragmentation{layout},
	}
	ep := endpoint.New(*name, &endpoint.RelBackend{Store: store, Speed: *speed, CanCombine: !*dumb}, defs)
	var logger obs.Logger
	if *verbose {
		logger = obs.NewTextLogger(os.Stderr, obs.LevelDebug)
	}
	var metrics *obs.Registry
	if *metricsAddr != "" {
		metrics = obs.NewRegistry()
		ops := &http.Server{Addr: *metricsAddr, Handler: obs.Mux(metrics), ReadHeaderTimeout: 10 * time.Second}
		go func() { log.Fatal("xdxendpoint: metrics: ", ops.ListenAndServe()) }()
		log.Printf("xdxendpoint: metrics on %s (/metrics, /healthz)", *metricsAddr)
	}
	if logger != nil || metrics != nil {
		ep.SetObs(logger, metrics)
	}

	if *walDir != "" {
		journal, err := durable.OpenJournal(*walDir, durable.Options{
			Fsync:          policy,
			SnapshotEvery:  *snapshotEvery,
			MaxBatchFrames: *batchFrames,
			Log:            logger,
			Met:            metrics,
		})
		if err != nil {
			log.Fatal("xdxendpoint: ", err)
		}
		defer journal.Close()
		restored, err := ep.SetJournal(journal)
		if err != nil {
			log.Fatal("xdxendpoint: ", err)
		}
		st := journal.RecoveryStats()
		log.Printf("xdxendpoint: wal %s (fsync=%s): recovered %d sessions, %d records in %s",
			*walDir, policy, restored, st.Records, st.Elapsed.Round(time.Microsecond))
	}

	// Collect abandoned resumable sessions in the background; the
	// opportunistic sweep only runs when new sessions arrive, which a
	// quiet endpoint may never see again.
	stopSweep := ep.Sessions().StartSweeper(0)
	defer stopSweep()

	mux := http.NewServeMux()
	mux.Handle("/soap", ep.Handler())
	mux.HandleFunc("/wsdl", func(w http.ResponseWriter, r *http.Request) {
		data, err := defs.Marshal()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/xml")
		w.Write(data)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "xdx endpoint %s\nlayout: %s (%d fragments)\nrows: %d\n",
			*name, layout.Name, layout.Len(), store.Rows())
	})
	srv := &http.Server{Addr: *listen, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	log.Printf("xdxendpoint: %s serving layout %s on %s (SOAP at /soap, WSDL at /wsdl)", *name, layout.Name, *listen)
	if err := soap.ListenAndServe(srv); err != nil {
		log.Fatal("xdxendpoint: ", err)
	}
	log.Printf("xdxendpoint: %s stopped", *name)
}
