package obs

// The metric registry. Counters and gauges are single atomics; histograms
// are power-of-two bucketed under a small mutex. Metrics are minted by
// name on first touch (Registry.Counter et al. get-or-create), and every
// accessor — including the registry itself — is nil-safe, so instrumented
// code reads naturally at call sites and compiles down to a pointer test
// when observability is off.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increases the counter. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter. Nil reads zero.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge. Nil-safe.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value reads the gauge. Nil reads zero.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations in [2^(i-1), 2^i), with bucket 0 taking everything
// below 1. 40 doublings span sub-unit to ~10^12 — microseconds to days
// when observing milliseconds.
const histBuckets = 40

// Histogram tracks a distribution in power-of-two buckets, plus exact
// count/sum/min/max. Good enough for latency and size distributions
// without quantile machinery.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      float64
	min, max float64
	buckets  [histBuckets]int64
}

// bucketOf maps a value to its power-of-two bucket index.
func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one value. Nil-safe; NaN is dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// ObserveSince records the elapsed time since start, in milliseconds —
// the unit every timing attribute of the wire protocol already uses.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
}

// snapshot renders the histogram as a JSON-friendly map. Buckets are
// keyed by their inclusive upper bound ("le_2", "le_4", …); empty buckets
// are omitted.
func (h *Histogram) snapshot() map[string]any {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := map[string]any{"count": h.count, "sum": h.sum}
	if h.count > 0 {
		m["min"], m["max"], m["mean"] = h.min, h.max, h.sum/float64(h.count)
	}
	for i, n := range h.buckets {
		if n > 0 {
			m[fmt.Sprintf("le_%d", uint64(1)<<uint(i))] = n
		}
	}
	return m
}

// Registry names and holds a process's metrics. Metrics are minted on
// first touch and live for the registry's lifetime; a nil *Registry is
// the "metrics off" state — every method answers without minting.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() any),
	}
}

// Counter returns the named counter, minting it on first touch. Nil
// registries return a nil (still usable) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, minting it on first touch.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, minting it on first touch.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Func publishes a computed value under name: fn is called at snapshot
// time, expvar-style. It is how live state (session counts, breaker
// states, fault tallies) appears on /metrics without push wiring. fn must
// be safe for concurrent use and return something json.Marshal accepts.
func (r *Registry) Func(name string, fn func() any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Snapshot renders every metric into a plain map. Func metrics are
// evaluated outside the registry lock, so they may themselves read
// instrumented components.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return map[string]any{}
	}
	r.mu.Lock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.funcs))
	for n, c := range r.counters {
		out[n] = c.Value()
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
	}
	for n, h := range r.hists {
		out[n] = h.snapshot()
	}
	funcs := make(map[string]func() any, len(r.funcs))
	for n, fn := range r.funcs {
		funcs[n] = fn
	}
	r.mu.Unlock()
	for n, fn := range funcs {
		out[n] = fn()
	}
	return out
}

// WriteJSON writes the snapshot as stable (key-sorted) indented JSON —
// the /metrics wire format.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if _, err := io.WriteString(w, "{\n"); err != nil {
		return err
	}
	for i, k := range keys {
		v, err := json.Marshal(snap[k])
		if err != nil {
			// A Func returned something unmarshalable; surface it in
			// place rather than failing the whole page.
			v = []byte(fmt.Sprintf("%q", "unmarshalable: "+err.Error()))
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "  %q: %s%s\n", k, v, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}
