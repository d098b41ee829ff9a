package registry

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"xdx/internal/core"
	"xdx/internal/durable"
	"xdx/internal/endpoint"
	"xdx/internal/netsim"
	"xdx/internal/reliable"
	"xdx/internal/relstore"
	"xdx/internal/xmark"
)

// BenchmarkSoapRoundTrip drives the full agency-mediated exchange (two
// live SOAP endpoints over httptest HTTP) once per iteration with default
// options: shipments stream onto responses and through io.Pipe request
// bodies without intermediate trees.
func BenchmarkSoapRoundTrip(b *testing.B) {
	ag, plan, _, done := startExchange(b, AlgGreedy)
	defer done()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ag.Execute("CustomerInfoService", plan, netsim.Loopback()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReliableExchangeDurable measures the durability tax on a full
// reliable (session + chunked) exchange: the same clean-link run with no
// journal, then with the target journaling every chunk commit under each
// fsync policy. The spread between "none" and "always" is the fsync
// overhead row of EXPERIMENTS.md.
func BenchmarkReliableExchangeDurable(b *testing.B) {
	cfg := &reliable.Config{
		Seed:      1,
		ChunkSize: 8,
		Policy: reliable.Policy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    4 * time.Millisecond,
			Budget:      64,
		},
	}
	run := func(b *testing.B, journaled bool, pol durable.FsyncPolicy) {
		ag, plan, _, tgtEP, done := startAuctionExchange(b)
		defer done()
		if journaled {
			j, err := durable.OpenJournal(b.TempDir(), durable.Options{Fsync: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			if _, err := tgtEP.SetJournal(j); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ag.ExecuteOpts("Auction", plan, ExecOptions{Link: netsim.Loopback(), Reliability: cfg}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("none", func(b *testing.B) { run(b, false, durable.FsyncOff) })
	b.Run("off", func(b *testing.B) { run(b, true, durable.FsyncOff) })
	b.Run("always", func(b *testing.B) { run(b, true, durable.FsyncAlways) })
	// batch is group commit: always-equivalent durability (every acked
	// chunk fsynced) with the syncs coalesced and overlapped with parse.
	b.Run("batch", func(b *testing.B) { run(b, true, durable.FsyncBatch) })
}

// BenchmarkDeltaExchange measures what churn rate costs on the wire: each
// iteration churns the source by the named fraction (equal parts deletes,
// updates, inserts), reloads it, and re-runs the exchange. The delta arms
// ship only the diff against the target's retained base; the full arm
// re-ships the whole snapshot at the same churn rate, so the
// wire-bytes/op spread between full/churn=1% and delta/churn=1% is the
// delta protocol's headline saving (recorded in BENCH_9.json).
func BenchmarkDeltaExchange(b *testing.B) {
	for _, tc := range []struct {
		name  string
		frac  float64
		delta bool
	}{
		{"full/churn=1pct", 0.01, false},
		{"delta/churn=1pct", 0.01, true},
		{"delta/churn=10pct", 0.10, true},
		{"delta/churn=50pct", 0.50, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sch := xmark.Schema()
			doc := xmark.Generate(xmark.Config{TargetBytes: 60_000, Seed: 42})
			sFr := core.MostFragmented(sch)
			tFr := core.LeastFragmented(sch)
			srcStore, err := relstore.NewStore(sFr)
			if err != nil {
				b.Fatal(err)
			}
			if err := srcStore.LoadDocument(doc.Clone()); err != nil {
				b.Fatal(err)
			}
			tgtStore, err := relstore.NewStore(tFr)
			if err != nil {
				b.Fatal(err)
			}
			srcEP := endpoint.New("S", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, nil)
			tgtEP := endpoint.New("T", &endpoint.RelBackend{Store: tgtStore, Speed: 1, CanCombine: true}, nil)
			srcSrv := httptest.NewServer(srcEP.Handler())
			defer srcSrv.Close()
			tgtSrv := httptest.NewServer(tgtEP.Handler())
			defer tgtSrv.Close()
			ag := New()
			if err := ag.Register("Auction", RoleSource, wsdlFor(b, sch, sFr, srcSrv.URL), srcSrv.URL); err != nil {
				b.Fatal(err)
			}
			if err := ag.Register("Auction", RoleTarget, wsdlFor(b, sch, tFr, tgtSrv.URL), tgtSrv.URL); err != nil {
				b.Fatal(err)
			}
			plan, err := ag.Plan("Auction", PlanOptions{Algorithm: AlgGreedy})
			if err != nil {
				b.Fatal(err)
			}
			cfg := &reliable.Config{
				Seed:      1,
				ChunkSize: 8,
				Policy: reliable.Policy{
					MaxAttempts: 3,
					BaseDelay:   time.Millisecond,
					MaxDelay:    4 * time.Millisecond,
					Budget:      64,
				},
			}
			opts := ExecOptions{Link: netsim.Loopback(), Reliability: cfg, Delta: tc.delta}
			// Warm the base and the reconciliation index so every timed
			// iteration is a repeat exchange.
			if _, err := ag.ExecuteOpts("Auction", plan, opts); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			var wire int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				churnAuction(doc, rng, tc.frac, i+1)
				srcStore.Clear()
				if err := srcStore.LoadDocument(doc.Clone()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := ag.ExecuteOpts("Auction", plan, opts)
				if err != nil {
					b.Fatal(err)
				}
				if tc.delta && !rep.Delta {
					b.Fatal("warm repeat exchange did not run as a delta")
				}
				wire += rep.WireBytes
			}
			b.ReportMetric(float64(wire)/float64(b.N), "wire-bytes/op")
		})
	}
}

// BenchmarkDurableMultiSession drives n concurrent reliable exchanges —
// n distinct durable sessions — against one batch-journaled target. Each
// iteration completes all n; near-flat ns/op across the widths means
// near-linear session scaling, because the sessions share commit groups
// and amortize each fsync across every session that queued a frame while
// the previous sync was in flight. The target store is emptied between
// iterations (off the clock): its Load appends, so left alone B/op would
// measure re-indexing everything earlier iterations loaded and grow with
// -benchtime.
func BenchmarkDurableMultiSession(b *testing.B) {
	cfg := &reliable.Config{
		Seed:      1,
		ChunkSize: 8,
		Policy: reliable.Policy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    4 * time.Millisecond,
			Budget:      64,
		},
	}
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			ag, plan, tgtStore, tgtEP, done := startAuctionExchange(b)
			defer done()
			j, err := durable.OpenJournal(b.TempDir(), durable.Options{Fsync: durable.FsyncBatch})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			if _, err := tgtEP.SetJournal(j); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tgtStore.Clear()
				b.StartTimer()
				var wg sync.WaitGroup
				errs := make([]error, n)
				for s := 0; s < n; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						_, errs[s] = ag.ExecuteOpts("Auction", plan, ExecOptions{Link: netsim.Loopback(), Reliability: cfg})
					}(s)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
