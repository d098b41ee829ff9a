// Command xdxload is the agency's traffic harness: it stands up N
// simulated tenants (each a relational source/target endpoint pair with
// generated CustomerInfo data), registers them all with one in-process
// discovery agency, and drives M concurrent exchanges at the agency's SOAP
// Exchange operation — the full production stack, loopback HTTP included.
//
// Two drive modes bracket the control plane's worth:
//
//   - serial: the pre-scheduler agency — exchanges one at a time, plan
//     re-derived (mapping + stats probes + optimizer) on every call;
//   - concurrent: the scheduler's worker pool with the plan-derivation
//     cache on, the configured concurrency submitting together.
//
// Per-call network latency is injected in front of every endpoint (and
// the agency itself) so the loopback run has the wait profile of a real
// deployment; the value is recorded in the report. The report (JSON)
// carries throughput, p50/p99 latency, failure/shed counts, plan-cache
// hit rate, and the speedup of concurrent over serial.
//
// Usage:
//
//	xdxload [-tenants 4] [-concurrency 32] [-ops 256] [-net-latency 5ms]
//	        [-mode both|serial|concurrent] [-check] [-min-speedup 0]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xdx/internal/core"
	"xdx/internal/durable"
	"xdx/internal/endpoint"
	"xdx/internal/netsim"
	"xdx/internal/registry"
	"xdx/internal/reliable"
	"xdx/internal/relstore"
	"xdx/internal/soap"
	"xdx/internal/telgen"
	"xdx/internal/wsdlx"
	"xdx/internal/xmltree"
)

func main() {
	tenants := flag.Int("tenants", 4, "simulated tenant services (one source/target endpoint pair each)")
	concurrency := flag.Int("concurrency", 32, "concurrent exchange submissions in the concurrent mode")
	ops := flag.Int("ops", 256, "exchanges per drive mode")
	customers := flag.Int("customers", 8, "generated customers per tenant source store")
	netLatency := flag.Duration("net-latency", 5*time.Millisecond, "injected per-call network latency in front of every endpoint")
	workers := flag.Int("workers", 0, "scheduler pool size (0 = 8 per GOMAXPROCS)")
	queue := flag.Int("queue", 0, "scheduler queue depth (0 = 2x workers)")
	tenantInflight := flag.Int("tenant-inflight", 0, "per-tenant in-flight budget (0 = unlimited)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admission rate per second (0 = unlimited)")
	codec := flag.String("codec", "", "shipment codec for exchanges (xml, feed, bin, bin+flate)")
	delta := flag.Bool("delta", false, "drive repeat exchanges in delta mode")
	fsync := flag.String("fsync", "", "make every exchange a durable retried session: journal each tenant target under this WAL fsync policy (always, batch, off; empty = memory-only sessions, one attempt per call)")
	mode := flag.String("mode", "both", "serial, concurrent, or both")
	out := flag.String("out", "", "write the JSON report here instead of stdout")
	check := flag.Bool("check", false, "exit nonzero unless every driven mode had nonzero throughput and zero failures")
	minSpeedup := flag.Float64("min-speedup", 0, "with -check and -mode both: minimum concurrent/serial throughput ratio")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	if *mode != "both" && *mode != "serial" && *mode != "concurrent" {
		log.Fatalf("xdxload: bad -mode %q", *mode)
	}

	w := newWorld(*tenants, *customers, *netLatency, *codec, *fsync, *delta, logf)
	defer w.close()

	// Default the queue to hold the full offered concurrency: the harness
	// is a closed-loop generator, so a queue sized below (concurrency -
	// workers) would shed its own load and corrupt the numbers. Shedding
	// behavior is exercised deliberately with -tenant-inflight/-tenant-rate.
	queueDepth := *queue
	if queueDepth == 0 {
		queueDepth = registry.SchedulerConfig{Workers: *workers}.DefaultWorkers() * 2
		if queueDepth < *concurrency {
			queueDepth = *concurrency
		}
	}
	sched := registry.NewScheduler(registry.SchedulerConfig{
		Workers:        *workers,
		QueueDepth:     queueDepth,
		TenantInFlight: *tenantInflight,
		TenantRate:     *tenantRate,
	})
	defer sched.Close()

	rep := &report{
		Tenants:          *tenants,
		Concurrency:      *concurrency,
		OpsPerMode:       *ops,
		CustomersPerDoc:  *customers,
		NetLatencyMillis: float64(*netLatency) / float64(time.Millisecond),
		Workers:          sched.Workers(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		Codec:            *codec,
		Fsync:            *fsync,
	}

	if *mode == "both" || *mode == "serial" {
		// The pre-scheduler agency: no pool, no plan cache, one at a time.
		w.agency.SetPlanCache(false)
		url, stop := w.serveService(nil)
		logf("xdxload: serial baseline: %d ops one at a time", *ops)
		s := drive(url, w.services, *ops, 1)
		stop()
		rep.Serial = &s
		logf("xdxload: serial: %.1f exchanges/s, p50 %.1fms p99 %.1fms, %d failed",
			s.ThroughputPerSec, s.P50Millis, s.P99Millis, s.Failed)
	}

	if *mode == "both" || *mode == "concurrent" {
		w.agency.SetPlanCache(true)
		h0, m0, _, _ := w.agency.PlanCacheStats()
		url, stop := w.serveService(sched)
		logf("xdxload: concurrent: %d ops at concurrency %d over %d workers",
			*ops, *concurrency, sched.Workers())
		c := drive(url, w.services, *ops, *concurrency)
		stop()
		h1, m1, _, size := w.agency.PlanCacheStats()
		rep.Concurrent = &c
		rep.PlanCache = &cacheStats{Hits: h1 - h0, Misses: m1 - m0, Size: size}
		if n := rep.PlanCache.Hits + rep.PlanCache.Misses; n > 0 {
			rep.PlanCache.HitRate = float64(rep.PlanCache.Hits) / float64(n)
		}
		logf("xdxload: concurrent: %.1f exchanges/s, p50 %.1fms p99 %.1fms, %d failed, cache hit rate %.3f",
			c.ThroughputPerSec, c.P50Millis, c.P99Millis, c.Failed, rep.PlanCache.HitRate)
	}

	if rep.Serial != nil && rep.Concurrent != nil && rep.Serial.ThroughputPerSec > 0 {
		rep.SpeedupX = rep.Concurrent.ThroughputPerSec / rep.Serial.ThroughputPerSec
		logf("xdxload: speedup %.2fx", rep.SpeedupX)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal("xdxload: ", err)
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			log.Fatal("xdxload: ", err)
		}
	} else {
		os.Stdout.Write(enc)
	}

	if *check {
		fail := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "xdxload: CHECK FAILED: "+format+"\n", args...)
			os.Exit(1)
		}
		for name, m := range map[string]*modeStats{"serial": rep.Serial, "concurrent": rep.Concurrent} {
			if m == nil {
				continue
			}
			if m.ThroughputPerSec <= 0 {
				fail("%s throughput is zero", name)
			}
			if m.Failed > 0 {
				fail("%s had %d failed exchanges", name, m.Failed)
			}
		}
		if *minSpeedup > 0 && rep.Serial != nil && rep.Concurrent != nil && rep.SpeedupX < *minSpeedup {
			fail("speedup %.2fx below required %.2fx", rep.SpeedupX, *minSpeedup)
		}
	}
}

// report is the harness's JSON output.
type report struct {
	Tenants          int         `json:"tenants"`
	Concurrency      int         `json:"concurrency"`
	OpsPerMode       int         `json:"ops_per_mode"`
	CustomersPerDoc  int         `json:"customers_per_tenant"`
	NetLatencyMillis float64     `json:"net_latency_ms"`
	Workers          int         `json:"workers"`
	GOMAXPROCS       int         `json:"gomaxprocs"`
	NumCPU           int         `json:"num_cpu"`
	Codec            string      `json:"codec,omitempty"`
	Fsync            string      `json:"fsync,omitempty"`
	Serial           *modeStats  `json:"serial,omitempty"`
	Concurrent       *modeStats  `json:"concurrent,omitempty"`
	SpeedupX         float64     `json:"speedup_x,omitempty"`
	PlanCache        *cacheStats `json:"plan_cache,omitempty"`
}

// modeStats reduces one drive mode. Throughput and the latency
// percentiles cover completed exchanges only — shed submissions answer in
// microseconds and would otherwise flatter both numbers.
type modeStats struct {
	Ops              int     `json:"ops"`
	Completed        int     `json:"completed"`
	Failed           int64   `json:"failed"`
	Shed             int64   `json:"shed"`
	WallMillis       float64 `json:"wall_ms"`
	ThroughputPerSec float64 `json:"throughput_per_s"`
	MeanMillis       float64 `json:"mean_ms"`
	P50Millis        float64 `json:"p50_ms"`
	P99Millis        float64 `json:"p99_ms"`
}

type cacheStats struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	Size    int     `json:"size"`
	HitRate float64 `json:"hit_rate"`
}

// world is the simulated deployment: one agency, N tenants' endpoint
// pairs, every HTTP hop behind the injected latency.
type world struct {
	agency      *registry.Agency
	link        netsim.Link
	services    []string
	latency     time.Duration
	codec       string
	delta       bool
	reliability *reliable.Config
	stops       []func()
}

func newWorld(tenants, customers int, latency time.Duration, codec, fsync string, delta bool, logf func(string, ...any)) *world {
	w := &world{agency: registry.New(), latency: latency, codec: codec, delta: delta, link: netsim.Loopback()}
	var fsyncPol durable.FsyncPolicy
	if fsync != "" {
		var err error
		if fsyncPol, err = durable.ParseFsync(fsync); err != nil {
			log.Fatal("xdxload: ", err)
		}
		// Durable drive: every exchange retries and resumes its chunked
		// session, and every tenant target journals its chunk commits —
		// many concurrent sessions sharing one WAL per tenant, which is
		// the workload group commit amortizes.
		w.reliability = &reliable.Config{
			Seed:      1,
			ChunkSize: 8,
			Policy: reliable.Policy{
				MaxAttempts: 3,
				BaseDelay:   time.Millisecond,
				MaxDelay:    4 * time.Millisecond,
				Budget:      64,
			},
		}
	}
	sch := telgen.Schema()
	sFr, err := core.PaperSFragmentation(sch)
	if err != nil {
		log.Fatal("xdxload: ", err)
	}
	tFr, err := core.PaperTFragmentation(sch)
	if err != nil {
		log.Fatal("xdxload: ", err)
	}
	for i := 0; i < tenants; i++ {
		svc := fmt.Sprintf("tenant-%03d", i)
		srcStore, err := relstore.NewStore(sFr)
		if err != nil {
			log.Fatal("xdxload: ", err)
		}
		for _, doc := range telgen.Customers(telgen.Config{Customers: customers, Seed: int64(i + 1)}) {
			if err := srcStore.LoadDocument(doc); err != nil {
				log.Fatal("xdxload: ", err)
			}
		}
		tgtStore, err := relstore.NewStore(tFr)
		if err != nil {
			log.Fatal("xdxload: ", err)
		}
		srcURL := w.serve(endpoint.New("S", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, nil).Handler())
		tgtEP := endpoint.New("T", &endpoint.RelBackend{Store: tgtStore, Speed: 1, CanCombine: true}, nil)
		if fsync != "" {
			walDir, err := os.MkdirTemp("", "xdxload-wal-*")
			if err != nil {
				log.Fatal("xdxload: ", err)
			}
			j, err := durable.OpenJournal(walDir, durable.Options{Fsync: fsyncPol, SnapshotEvery: 256})
			if err != nil {
				log.Fatal("xdxload: ", err)
			}
			if _, err := tgtEP.SetJournal(j); err != nil {
				log.Fatal("xdxload: ", err)
			}
			w.stops = append(w.stops, func() {
				j.Close()
				os.RemoveAll(walDir)
			})
		}
		tgtURL := w.serve(tgtEP.Handler())
		if err := w.agency.Register(svc, registry.RoleSource, wsdlFor(sch, sFr, srcURL), srcURL); err != nil {
			log.Fatal("xdxload: ", err)
		}
		if err := w.agency.Register(svc, registry.RoleTarget, wsdlFor(sch, tFr, tgtURL), tgtURL); err != nil {
			log.Fatal("xdxload: ", err)
		}
		w.services = append(w.services, svc)
	}
	logf("xdxload: %d tenants registered (%d customers each, +%s per call)", tenants, customers, latency)
	return w
}

// serve exposes a handler on a loopback listener behind the injected
// latency and returns its URL.
func (w *world) serve(h http.Handler) string {
	if w.latency > 0 {
		inner := h
		lat := w.latency
		h = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			time.Sleep(lat)
			inner.ServeHTTP(rw, r)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal("xdxload: ", err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	w.stops = append(w.stops, func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

// serveService exposes the agency's SOAP service (with or without the
// scheduler) and returns its URL plus a stop function.
func (w *world) serveService(sched *registry.Scheduler) (string, func()) {
	svc := registry.NewService(w.agency, w.link)
	svc.Codec = w.codec
	svc.Reliability = w.reliability
	svc.Delta = w.delta
	svc.Sched = sched
	url := w.serve(svc.Handler())
	stop := w.stops[len(w.stops)-1]
	return url, stop
}

func (w *world) close() {
	for _, stop := range w.stops {
		stop()
	}
}

func wsdlFor(sch interface{ Len() int }, fr *core.Fragmentation, addr string) []byte {
	d := &wsdlx.Definitions{
		Name:            "CustomerInfo",
		TargetNamespace: "http://customers.wsdl",
		ServiceName:     "CustomerInfoService",
		PortName:        "CustomerInfoPort",
		Address:         addr,
		Schema:          fr.Schema,
		Fragmentations:  []*core.Fragmentation{fr},
	}
	data, err := d.Marshal()
	if err != nil {
		log.Fatal("xdxload: ", err)
	}
	return data
}

// drive fires ops Exchange calls at the agency, round-robin across the
// tenant services, from `conc` submitter goroutines, and reduces the
// per-op latencies into modeStats.
func drive(agURL string, services []string, ops, conc int) modeStats {
	var mu sync.Mutex
	var lat []float64
	var failed, shed atomic.Int64
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &soap.Client{URL: agURL}
			var mine []float64
			for {
				i := int(next.Add(1)) - 1
				if i >= ops {
					break
				}
				req := &xmltree.Node{Name: "Exchange"}
				req.SetAttr("service", services[i%len(services)])
				t0 := time.Now()
				_, err := client.Call("Exchange", req)
				switch {
				case err == nil:
					mine = append(mine, float64(time.Since(t0))/float64(time.Millisecond))
				case soap.IsOverloaded(err):
					shed.Add(1)
				default:
					failed.Add(1)
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	sort.Float64s(lat)
	sum := 0.0
	for _, v := range lat {
		sum += v
	}
	pct := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	st := modeStats{
		Ops:              ops,
		Completed:        len(lat),
		Failed:           failed.Load(),
		Shed:             shed.Load(),
		WallMillis:       float64(wall) / float64(time.Millisecond),
		ThroughputPerSec: float64(len(lat)) / wall.Seconds(),
		P50Millis:        pct(0.50),
		P99Millis:        pct(0.99),
	}
	if len(lat) > 0 {
		st.MeanMillis = sum / float64(len(lat))
	}
	return st
}
