// Command xdxd runs the discovery agency (Figure 2) as a standalone SOAP
// daemon. Systems register WSDL documents carrying the fragmentation
// extension with <Register>, inspect generated programs with <Plan>, and
// trigger end-to-end exchanges with <Exchange>.
//
// Usage:
//
//	xdxd -listen :8080 [-bandwidth 160000] [-chunk 64]
//
// Every exchange retries under the -retry-*/-chunk policy and -breaker-*.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"xdx/internal/netsim"
	"xdx/internal/obs"
	"xdx/internal/registry"
	"xdx/internal/reliable"
	"xdx/internal/soap"
	"xdx/internal/wire"
)

func main() {
	listen := flag.String("listen", ":8080", "listen address")
	bandwidth := flag.Float64("bandwidth", 0, "modeled source->target bandwidth in bytes/sec (0 = unlimited)")
	latency := flag.Duration("latency", 0, "modeled link latency")
	state := flag.String("state", "", "directory for persisted registrations (survives restarts)")
	codec := flag.String("codec", "", "default shipment codec: xml, bin, or bin+flate")
	retryAttempts := flag.Int("retry-attempts", 0, "max attempts per call (0 = default 4)")
	retryBudget := flag.Int("retry-budget", 0, "total retries allowed per exchange (0 = default 16)")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "per-attempt SOAP call timeout (0 = client default)")
	chunkSize := flag.Int("chunk", 0, "records per resumable shipment chunk (0 = default 64)")
	breakerFailures := flag.Int("breaker-failures", 0, "consecutive failures before an endpoint's circuit opens (0 = default 5)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long an open circuit fails fast (0 = default 1s)")
	retrySeed := flag.Int64("retry-seed", 0, "seed for backoff jitter and session IDs (reproducible runs)")
	exchangeWorkers := flag.Int("exchange-workers", 0, "concurrent exchange pool size (0 = 8 per GOMAXPROCS)")
	exchangeQueue := flag.Int("exchange-queue", 0, "bounded exchange FIFO depth; submissions beyond it are shed with a 503 fault (0 = 2x workers)")
	tenantInflight := flag.Int("tenant-inflight", 0, "max queued+running exchanges per tenant before shedding (0 = unlimited)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant exchange admission rate per second, token-bucket (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant token-bucket burst capacity (0 = ceil(rate))")
	delta := flag.Bool("delta", false, "ship repeat exchanges as deltas against the target's retained base")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address (empty = off)")
	verbose := flag.Bool("v", false, "log exchange activity (retries, breaker transitions, outcomes) to stderr")
	flag.Parse()
	if *exchangeWorkers < 0 {
		log.Fatal("xdxd: -exchange-workers is negative; the serial (no pool) mode is gone, every exchange runs on the scheduler's pool (0 = 8 per GOMAXPROCS)")
	}

	link := netsim.Link{BytesPerSecond: *bandwidth, Latency: *latency}
	agency := registry.New()
	if *state != "" {
		restored, err := registry.LoadAgency(*state)
		if err != nil {
			log.Fatal("xdxd: ", err)
		}
		agency = restored
		agency.SetAutoSave(*state)
		log.Printf("xdxd: restored %d services from %s", len(agency.Services()), *state)
	}
	svc := registry.NewService(agency, link)
	svc.Sched = registry.NewScheduler(registry.SchedulerConfig{
		Workers:        *exchangeWorkers,
		QueueDepth:     *exchangeQueue,
		TenantInFlight: *tenantInflight,
		TenantRate:     *tenantRate,
		TenantBurst:    *tenantBurst,
	})
	log.Printf("xdxd: exchange pool %d workers, queue %d", svc.Sched.Workers(), svc.Sched.QueueDepth())
	if *codec != "" {
		if _, err := wire.ParseCodec(*codec); err != nil {
			log.Fatal("xdxd: ", err)
		}
		svc.Codec = *codec
		log.Printf("xdxd: default shipment codec %s", *codec)
	}
	svc.Reliability = &reliable.Config{
		Policy: reliable.Policy{
			MaxAttempts:    *retryAttempts,
			Budget:         *retryBudget,
			AttemptTimeout: *attemptTimeout,
		},
		// One breaker set for the daemon's lifetime, so endpoint health
		// carries across exchanges instead of resetting per request.
		Breakers: reliable.NewBreakerSet(reliable.BreakerConfig{
			FailureThreshold: *breakerFailures,
			Cooldown:         *breakerCooldown,
		}),
		ChunkSize: *chunkSize,
		Seed:      *retrySeed,
	}
	if *delta {
		svc.Delta = true
		log.Printf("xdxd: delta exchanges on")
	}

	var logger obs.Logger
	if *verbose {
		logger = obs.NewTextLogger(os.Stderr, obs.LevelDebug)
	}
	var metrics *obs.Registry
	if *metricsAddr != "" {
		metrics = obs.NewRegistry()
		ops := &http.Server{Addr: *metricsAddr, Handler: obs.Mux(metrics), ReadHeaderTimeout: 10 * time.Second}
		go func() { log.Fatal("xdxd: metrics: ", ops.ListenAndServe()) }()
		log.Printf("xdxd: metrics on %s (/metrics, /healthz)", *metricsAddr)
	}
	if logger != nil || metrics != nil {
		svc.SetObs(logger, metrics)
	}

	mux := http.NewServeMux()
	mux.Handle("/soap", svc.Handler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "xdx discovery agency\nservices: %v\nlink: %s\n", agency.Services(), link)
	})
	srv := &http.Server{Addr: *listen, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	log.Printf("xdxd: discovery agency listening on %s (SOAP at /soap, %s)", *listen, link)
	if err := soap.ListenAndServe(srv); err != nil {
		log.Fatal("xdxd: ", err)
	}
	svc.Sched.Close()
	log.Printf("xdxd: stopped")
}
