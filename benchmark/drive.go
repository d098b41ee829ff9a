package main

// The closed-loop client drive and its accounting.

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"xdx/internal/soap"
)

// usage is a reading of the process-wide cost counters.
type usage struct {
	cpu      time.Duration // user+sys, all three roles (one process)
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
	}
}

// addSince accumulates the counters' growth since from.
func (u *usage) addSince(from usage) {
	now := readUsage()
	u.cpu += now.cpu - from.cpu
	u.mallocs += now.mallocs - from.mallocs
	u.bytes += now.bytes - from.bytes
	u.gcCycles += now.gcCycles - from.gcCycles
	u.gcPause += now.gcPause - from.gcPause
}

// runStats is one drive's outcome.
type runStats struct {
	clients   int
	attempted int
	failed    int
	firstErr  error
	// latMS holds the client wall-clock of every successful exchange call.
	latMS []float64
	// active sums, over clients, the time spent inside workload calls
	// (exchange, and re-Register where the workload has it). The clock
	// stops while the harness prepares the next op.
	active    time.Duration
	wireBytes int64
	docBytes  int64
	use       usage
	results   []opResult // successful ops, for the traced run's reports
}

func (s *runStats) merge(o *runStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
	s.latMS = append(s.latMS, o.latMS...)
	s.active += o.active
	s.wireBytes += o.wireBytes
	s.docBytes += o.docBytes
	s.results = append(s.results, o.results...)
	s.use.cpu += o.use.cpu
	s.use.mallocs += o.use.mallocs
	s.use.bytes += o.use.bytes
	s.use.gcCycles += o.use.gcCycles
	s.use.gcPause += o.use.gcPause
}

// measuredSeconds is the window the throughput is taken over: mean
// per-client active time.
func (s *runStats) measuredSeconds() float64 {
	return s.active.Seconds() / float64(s.clients)
}

// clientCount is the number of closed-loop clients: one for the bulk
// workloads, one per CPU (never more, and never more than tenants) for the
// control-plane workload.
func (d *deployment) clientCount() int {
	n := 1
	if d.w.Telecom {
		n = runtime.GOMAXPROCS(0)
		if n > len(d.tenants) {
			n = len(d.tenants)
		}
	}
	return n
}

// drive runs the workload closed-loop for dur (and at least minOps ops per
// client). Each client owns a disjoint set of tenants, so preparing a
// tenant (clearing its target, churning its source) never races an
// exchange. CPU and allocation counters are process-wide: with one client
// they are read around each op, which keeps the harness's own preparation
// out; with several they are read around the whole window, where
// preparation is a map clear per op.
func (d *deployment) drive(dur time.Duration, minOps int, keepResults bool) *runStats {
	clients := d.clientCount()
	total := &runStats{clients: clients}
	perOp := clients == 1
	var mu sync.Mutex
	var wg sync.WaitGroup
	var windowStart usage
	if !perOp {
		windowStart = readUsage()
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []*tenant
			for i := c; i < len(d.tenants); i += clients {
				mine = append(mine, d.tenants[i])
			}
			st := &runStats{}
			client := &soap.Client{URL: d.agencyURL}
			for i := 0; i < minOps || time.Since(start) < dur; i++ {
				t := mine[i%len(mine)]
				st.attempted++
				if err := d.prepare(t); err != nil {
					st.fail(err)
					continue
				}
				var before usage
				if perOp {
					before = readUsage()
				}
				t0 := time.Now()
				var res opResult
				if d.w.Telecom && i > 0 && i%d.sz.ReRegisterEvery == 0 {
					_, res.err = client.Call("Register", t.tgtRegister)
				}
				t1 := time.Now()
				if res.err == nil {
					res = d.exchange(client, t)
				}
				end := time.Now()
				st.active += end.Sub(t0)
				if perOp {
					st.use.addSince(before)
				}
				switch {
				case res.err != nil:
					st.fail(res.err)
				case res.fallback:
					st.fail(errUnexpectedFallback)
				default:
					st.latMS = append(st.latMS, ms(end.Sub(t1)))
					st.wireBytes += res.wireBytes
					st.docBytes += t.docBytes
					if keepResults {
						st.results = append(st.results, res)
					}
				}
			}
			mu.Lock()
			total.merge(st)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if !perOp {
		total.use.addSince(windowStart)
	}
	return total
}

func (s *runStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

var errUnexpectedFallback = errors.New("delta exchange fell back to a full re-ship on a clean, warm link")

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, and 0 where b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the nearest-rank p-quantile (0..1) of vals.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median averages the two middle values of an even-sized sample.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles mirrors Python's statistics.quantiles(vals, n=4) (exclusive
// method) — the rule the benchmark driver applies to ten runs.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
