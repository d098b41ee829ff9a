package registry

// The plan-derivation cache. Deriving a plan costs a mapping construction,
// two stats-probe SOAP round trips, and an optimizer search — all of it a
// pure function of the registered fragmentation pair, the endpoint pair,
// and the plan options. At traffic scale the same service is exchanged
// thousands of times between registration changes, so the agency derives
// once per key and hands out the immutable *Plan template until the
// service's registration mutates.
//
// Entries are grouped by service name because that is the invalidation
// unit: Register/RegisterFromEndpoint drop every entry of the touched
// service. The inner key carries everything the derivation read —
// fragment element sets, endpoint URLs, algorithm and codec — so a
// re-registration that somehow survives invalidation still cannot alias a
// stale entry (the key changes with the fragmentation).

import (
	"strings"
	"sync"
	"sync/atomic"

	"xdx/internal/obs"
)

// planCache maps service -> derivation key -> immutable plan template
// behind its own RWMutex, so cache reads never touch the agency's
// registration lock and planning never serializes executes.
type planCache struct {
	mu      sync.RWMutex
	entries map[string]map[string]*Plan
	flights map[string]*planFlight

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	size      atomic.Int64
}

// planFlight is one in-progress derivation. Concurrent misses for the same
// key coalesce onto it instead of stampeding the endpoints with duplicate
// probe rounds: one leader derives, everyone else waits on done and reads
// p/err.
type planFlight struct {
	done chan struct{}
	p    *Plan
	err  error
}

func (c *planCache) init() {
	c.entries = make(map[string]map[string]*Plan)
	c.flights = make(map[string]*planFlight)
}

// join is the single-flight entry point. A cache hit returns the template.
// Otherwise the first caller for a key becomes the leader (counting the
// miss) and must derive then finish; later callers for the same key get the
// leader's flight back and wait on its done channel.
func (c *planCache) join(service, key string) (p *Plan, f *planFlight, leader bool) {
	c.mu.Lock()
	if p := c.entries[service][key]; p != nil {
		c.mu.Unlock()
		c.hits.Add(1)
		return p, nil, false
	}
	fk := service + "\x1f" + key
	if f := c.flights[fk]; f != nil {
		c.mu.Unlock()
		return nil, f, false
	}
	f = &planFlight{done: make(chan struct{})}
	c.flights[fk] = f
	c.mu.Unlock()
	c.misses.Add(1)
	return nil, f, true
}

// finish publishes a leader's result and releases the flight's waiters.
func (c *planCache) finish(service, key string, f *planFlight, p *Plan, err error) {
	f.p, f.err = p, err
	c.mu.Lock()
	delete(c.flights, service+"\x1f"+key)
	c.mu.Unlock()
	close(f.done)
}

// put stores a freshly derived template unless valid reports that the
// derivation raced a registration change. A service's keys vary only in
// algorithm and codec, so it holds at most 2 × 4 templates: no cap.
func (c *planCache) put(service, key string, p *Plan, valid func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !valid() {
		return
	}
	m := c.entries[service]
	if m == nil {
		m = make(map[string]*Plan)
		c.entries[service] = m
	}
	if _, exists := m[key]; !exists {
		c.size.Add(1)
	}
	m[key] = p
}

// invalidate drops every cached template of a service, counting evictions.
func (c *planCache) invalidate(service string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.entries[service]; len(m) > 0 {
		c.evictions.Add(int64(len(m)))
		c.size.Add(int64(-len(m)))
	}
	delete(c.entries, service)
}

// stats reads the lifetime counters and the current entry count.
func (c *planCache) stats() (hits, misses, evictions int64, size int) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(), int(c.size.Load())
}

// export publishes the cache's counters on a metric registry as
// plan.cache.{hits,misses,evictions,size}.
func (c *planCache) export(m *obs.Registry) {
	if m == nil {
		return
	}
	m.Func("plan.cache.hits", func() any { return c.hits.Load() })
	m.Func("plan.cache.misses", func() any { return c.misses.Load() })
	m.Func("plan.cache.evictions", func() any { return c.evictions.Load() })
	m.Func("plan.cache.size", func() any { return c.size.Load() })
}

// planKey renders everything a derivation reads into a string key: both
// parties' fragment element sets (names alone could alias two different
// layouts), both endpoint URLs (the stats probes answer per endpoint), and
// the full PlanOptions: the algorithm, and the codec by its one name
// (Plan resolves "" to xml), since the codec's calibrated ShipBytes
// changes placements. An exchange's filter is not in it: the
// plan prices the exchange unfiltered, so every filter shares one plan.
func planKey(src, tgt *Party, opts PlanOptions) string {
	var b strings.Builder
	writeFragSig(&b, src)
	b.WriteByte('\x1f')
	writeFragSig(&b, tgt)
	b.WriteByte('\x1f')
	b.WriteString(string(opts.Algorithm))
	b.WriteByte('|')
	b.WriteString(opts.Codec)
	return b.String()
}

// writeFragSig writes one party's derivation-relevant identity: its URL
// and, per fragment in layout order, the root and sorted element set.
func writeFragSig(b *strings.Builder, p *Party) {
	b.WriteString(p.URL)
	b.WriteByte('\x1e')
	for _, f := range p.Fragmentation.Fragments {
		b.WriteString(f.Root)
		b.WriteByte('=')
		for i, e := range f.ElemList() {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(e)
		}
		b.WriteByte(';')
	}
}
