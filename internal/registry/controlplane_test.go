package registry

// Control-plane coverage: the plan-derivation cache (hit path skips the
// endpoint probes, re-registration invalidates, the per-service bound
// evicts, cached plans execute identically to fresh ones), the
// admission-controlled exchange scheduler (FIFO, queue-full and per-tenant
// shedding), concurrent exchanges and the shed fault's isolation between
// tenants over live SOAP, and the paginated service listing.

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xdx/internal/core"
	"xdx/internal/endpoint"
	"xdx/internal/netsim"
	"xdx/internal/obs"
	"xdx/internal/relstore"
	"xdx/internal/schema"
	"xdx/internal/soap"
	"xdx/internal/xmltree"
)

// startTenant registers one service's relational source/target pair on ag.
// Every endpoint request sleeps delay first (so concurrency tests have
// waits to overlap) and bumps reqs (so probe-count tests can see traffic).
func startTenant(t testing.TB, ag *Agency, service string, sch *schema.Schema, srcFr, tgtFr *core.Fragmentation, delay time.Duration, reqs *atomic.Int64) (*relstore.Store, func()) {
	t.Helper()
	srcStore, err := relstore.NewStore(srcFr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srcStore.LoadDocument(customerDoc(t)); err != nil {
		t.Fatal(err)
	}
	tgtStore, err := relstore.NewStore(tgtFr)
	if err != nil {
		t.Fatal(err)
	}
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if delay > 0 {
				time.Sleep(delay)
			}
			if reqs != nil {
				reqs.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}
	srcSrv := httptest.NewServer(wrap(endpoint.New("S", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, nil).Handler()))
	tgtSrv := httptest.NewServer(wrap(endpoint.New("T", &endpoint.RelBackend{Store: tgtStore, Speed: 1, CanCombine: true}, nil).Handler()))
	if err := ag.Register(service, RoleSource, wsdlFor(t, sch, srcFr, srcSrv.URL), srcSrv.URL); err != nil {
		t.Fatal(err)
	}
	if err := ag.Register(service, RoleTarget, wsdlFor(t, sch, tgtFr, tgtSrv.URL), tgtSrv.URL); err != nil {
		t.Fatal(err)
	}
	return tgtStore, func() { srcSrv.Close(); tgtSrv.Close() }
}

// A second Plan over an unchanged pair must come from the cache: no
// endpoint traffic, one hit on the counters, the identical template.
func TestPlanCacheHitSkipsProbes(t *testing.T) {
	sch := schema.CustomerInfo()
	ag := New()
	var reqs atomic.Int64
	_, stop := startTenant(t, ag, "svc", sch, sFragmentation(t, sch), tFragmentation(t, sch), 0, &reqs)
	defer stop()

	p1, err := ag.Plan("svc", PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	probed := reqs.Load()
	if probed == 0 {
		t.Fatal("first Plan never touched the endpoints")
	}
	p2, err := ag.Plan("svc", PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Error("second Plan derived a new template instead of serving the cache")
	}
	if got := reqs.Load(); got != probed {
		t.Errorf("cached Plan still probed the endpoints (%d -> %d requests)", probed, got)
	}
	hits, misses, _, size := ag.PlanCacheStats()
	if hits != 1 || misses != 1 || size != 1 {
		t.Errorf("stats = %d hits / %d misses / size %d, want 1/1/1", hits, misses, size)
	}
}

// Distinct plan options are distinct cache keys, not aliases.
func TestPlanCacheKeyedOnOptions(t *testing.T) {
	sch := schema.CustomerInfo()
	ag := New()
	_, stop := startTenant(t, ag, "svc", sch, sFragmentation(t, sch), tFragmentation(t, sch), 0, nil)
	defer stop()

	pg, err := ag.Plan("svc", PlanOptions{Algorithm: AlgGreedy})
	if err != nil {
		t.Fatal(err)
	}
	po, err := ag.Plan("svc", PlanOptions{Algorithm: AlgOptimal})
	if err != nil {
		t.Fatal(err)
	}
	if pg == po {
		t.Error("greedy and optimal plans aliased one cache entry")
	}
	if _, misses, _, size := ag.PlanCacheStats(); misses != 2 || size != 2 {
		t.Errorf("misses=%d size=%d, want 2 and 2", misses, size)
	}
}

// One service holds at most maxPlansPerService plans however many distinct
// filters its requests name: each derivation past the cap evicts one entry,
// and the newest plan stays served.
func TestPlanCacheBoundedPerService(t *testing.T) {
	sch := schema.CustomerInfo()
	ag := New()
	_, stop := startTenant(t, ag, "svc", sch, sFragmentation(t, sch), tFragmentation(t, sch), 0, nil)
	defer stop()

	const k = 3
	filter := func(i int) string { return fmt.Sprintf(`CustName = "c%d"`, i) }
	for i := 0; i < maxPlansPerService+k; i++ {
		if _, err := ag.Plan("svc", PlanOptions{Filter: filter(i)}); err != nil {
			t.Fatal(err)
		}
		if _, _, _, size := ag.PlanCacheStats(); size > maxPlansPerService {
			t.Fatalf("after %d filters the cache holds %d plans, cap %d", i+1, size, maxPlansPerService)
		}
	}
	hits, misses, evictions, size := ag.PlanCacheStats()
	if hits != 0 || misses != maxPlansPerService+k || evictions != k || size != maxPlansPerService {
		t.Errorf("stats = %d hits / %d misses / %d evictions / size %d, want 0/%d/%d/%d",
			hits, misses, evictions, size, maxPlansPerService+k, k, maxPlansPerService)
	}
	if _, err := ag.Plan("svc", PlanOptions{Filter: filter(maxPlansPerService + k - 1)}); err != nil {
		t.Fatal(err)
	}
	if hits, _, _, _ := ag.PlanCacheStats(); hits != 1 {
		t.Errorf("the newest filter's plan was not served from the cache (%d hits)", hits)
	}
}

// Re-registering a party with a different fragmentation must evict the
// service's cached plans, and the next Plan must reflect the new layout.
func TestPlanCacheInvalidatedByReRegister(t *testing.T) {
	sch := schema.CustomerInfo()
	ag := New()
	sFr := sFragmentation(t, sch)
	_, stop := startTenant(t, ag, "svc", sch, sFr, tFragmentation(t, sch), 0, nil)
	defer stop()

	p1, err := ag.Plan("svc", PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oldFrags := len(p1.Mapping.Source.Fragments)

	// Re-register the source under a coarser layout at the same URL.
	trivial := core.Trivial(sch)
	src := ag.Party("svc", RoleSource)
	if err := ag.Register("svc", RoleSource, wsdlFor(t, sch, trivial, src.URL), src.URL); err != nil {
		t.Fatal(err)
	}
	if _, _, evictions, size := ag.PlanCacheStats(); evictions != 1 || size != 0 {
		t.Fatalf("evictions=%d size=%d after re-register, want 1 and 0", evictions, size)
	}

	p2, err := ag.Plan("svc", PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Fatal("Plan after re-registration served the stale template")
	}
	if got := len(p2.Mapping.Source.Fragments); got == oldFrags || got != 1 {
		t.Errorf("new plan sees %d source fragments, want 1 (trivial layout), old was %d", got, oldFrags)
	}
	if _, misses, _, _ := ag.PlanCacheStats(); misses != 2 {
		t.Errorf("misses=%d, want 2 (one per derivation)", misses)
	}
}

// Property check over a seeded family of source fragmentations: a plan
// served from the cache must move the document exactly like the freshly
// derived plan — same reassembled target tree. The fresh plan is the first
// Plan call (a miss), the cached one the second (a hit).
func TestCachedPlanMatchesFresh(t *testing.T) {
	sch := schema.CustomerInfo()
	base := [][]string{
		{"Customer", "CustName"},
		{"Order"},
		{"Service", "ServiceName"},
		{"Line", "TelNo", "Feature", "FeatureID"},
		{"Switch", "SwitchID"},
	}
	variants := [][][]string{base}
	// Seeded random merges of the base partition; invalid merges are
	// skipped, so the family stays inside FromPartition's rules.
	rng := rand.New(rand.NewSource(41))
	for tries := 0; tries < 12 && len(variants) < 4; tries++ {
		i, j := rng.Intn(len(base)), rng.Intn(len(base))
		if i == j {
			continue
		}
		var merged [][]string
		for k, g := range base {
			switch k {
			case i:
				merged = append(merged, append(append([]string{}, base[i]...), base[j]...))
			case j:
			default:
				merged = append(merged, g)
			}
		}
		if _, err := core.FromPartition(sch, "merged", merged); err == nil {
			variants = append(variants, merged)
		}
	}
	if len(variants) < 2 {
		t.Fatal("seeded merge produced no valid variant")
	}

	want := customerDoc(t)
	for vi, part := range variants {
		srcFr, err := core.FromPartition(sch, "S-variant", part)
		if err != nil {
			t.Fatal(err)
		}
		ag := New()
		tgtStore, stop := startTenant(t, ag, "svc", sch, srcFr, tFragmentation(t, sch), 0, nil)

		run := func(p *Plan) *xmltree.Node {
			t.Helper()
			tgtStore.Clear()
			if _, err := ag.Execute("svc", p, netsim.Loopback()); err != nil {
				t.Fatalf("variant %d: %v", vi, err)
			}
			insts := map[string]*core.Instance{}
			for _, f := range tgtStore.Layout.Fragments {
				in, err := tgtStore.ScanFragment(f.Name)
				if err != nil {
					t.Fatal(err)
				}
				insts[f.Name] = in
			}
			back, err := core.Document(tgtStore.Layout, insts)
			if err != nil {
				t.Fatalf("variant %d: %v", vi, err)
			}
			return back
		}

		fresh, err := ag.Plan("svc", PlanOptions{})
		if err != nil {
			t.Fatalf("variant %d: %v", vi, err)
		}
		if hits, misses, _, _ := ag.PlanCacheStats(); hits != 0 || misses != 1 {
			t.Fatalf("variant %d: first Plan read %d hits / %d misses, want a miss", vi, hits, misses)
		}
		freshDoc := run(fresh)

		cached, err := ag.Plan("svc", PlanOptions{})
		if err != nil {
			t.Fatalf("variant %d: %v", vi, err)
		}
		if hits, misses, _, _ := ag.PlanCacheStats(); hits != 1 || misses != 1 {
			t.Fatalf("variant %d: second Plan read %d hits / %d misses, want a hit", vi, hits, misses)
		}
		if cached != fresh {
			t.Fatalf("variant %d: the cache served a different template than it stored", vi)
		}
		cachedDoc := run(cached)

		if !xmltree.EqualShape(want, freshDoc) {
			t.Errorf("variant %d: fresh plan corrupted the document", vi)
		}
		if !xmltree.EqualShape(freshDoc, cachedDoc) {
			t.Errorf("variant %d: cached plan's output differs from the fresh plan's", vi)
		}
		stop()
	}
}

// With one worker, queued jobs run in submission order.
func TestSchedulerFIFOOrder(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 8})
	defer s.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Submit("t", func() error { close(started); <-gate; return nil })
	}()
	<-started // the lone worker is now held

	var mu sync.Mutex
	var order []int
	for i := 1; i <= 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Submit("t", func() error {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				return nil
			})
		}()
		time.Sleep(20 * time.Millisecond) // serialize enqueue order
	}
	close(gate)
	wg.Wait()
	for i, got := range order {
		if got != i+1 {
			t.Fatalf("execution order %v, want 1..4 FIFO", order)
		}
	}
}

// A full queue sheds immediately with the typed overload fault.
func TestSchedulerQueueFullSheds(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 1})
	defer s.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.Submit("t", func() error { close(started); <-gate; return nil })
	}()
	<-started
	go func() {
		defer wg.Done()
		s.Submit("t", func() error { return nil }) // occupies the one queue slot
	}()
	time.Sleep(30 * time.Millisecond)

	err := s.Submit("t", func() error { return nil })
	if !soap.IsOverloaded(err) {
		t.Fatalf("queue-full Submit returned %v, want overloaded fault", err)
	}
	close(gate)
	wg.Wait()
	if accepted, completed, failed, shed := s.Stats(); accepted != 2 || completed != 2 || failed != 0 || shed != 1 {
		t.Errorf("stats = %d/%d/%d/%d, want accepted 2, completed 2, failed 0, shed 1",
			accepted, completed, failed, shed)
	}
}

// The in-flight budget sheds one tenant without touching another.
func TestSchedulerTenantInFlightBudget(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, QueueDepth: 8, TenantInFlight: 1})
	defer s.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Submit("a", func() error { close(started); <-gate; return nil })
	}()
	<-started

	if err := s.Submit("a", func() error { return nil }); !soap.IsOverloaded(err) {
		t.Errorf("over-budget tenant a got %v, want overloaded fault", err)
	}
	if err := s.Submit("b", func() error { return nil }); err != nil {
		t.Errorf("tenant b was rejected alongside a: %v", err)
	}
	close(gate)
	wg.Wait()

	// The budget frees with the slot: tenant a admits again.
	if err := s.Submit("a", func() error { return nil }); err != nil {
		t.Errorf("tenant a still over budget after completion: %v", err)
	}
}

// The token bucket rate-limits a tenant and refills over time.
func TestSchedulerTenantRateBudget(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, TenantRate: 10, TenantBurst: 1})
	defer s.Close()
	if err := s.Submit("a", func() error { return nil }); err != nil {
		t.Fatalf("first submission spent the burst token and failed: %v", err)
	}
	if err := s.Submit("a", func() error { return nil }); !soap.IsOverloaded(err) {
		t.Fatalf("second immediate submission got %v, want overloaded fault", err)
	}
	time.Sleep(150 * time.Millisecond) // 10/s refills 1.5 tokens
	if err := s.Submit("a", func() error { return nil }); err != nil {
		t.Errorf("submission after refill window failed: %v", err)
	}
}

func TestSchedulerSubmitAfterClose(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	s.Close()
	if err := s.Submit("t", func() error { return nil }); err != ErrSchedulerClosed {
		t.Fatalf("Submit after Close = %v, want ErrSchedulerClosed", err)
	}
	s.Close() // idempotent
}

// Over-driving one tenant through the live SOAP service sheds that tenant
// with soap.CodeOverloaded while the other tenant's exchanges all land.
func TestExchangeShedIsolatesTenants(t *testing.T) {
	sch := schema.CustomerInfo()
	ag := New()
	sFr, tFr := sFragmentation(t, sch), tFragmentation(t, sch)
	_, stopA := startTenant(t, ag, "svc-a", sch, sFr, tFr, 25*time.Millisecond, nil)
	defer stopA()
	_, stopB := startTenant(t, ag, "svc-b", sch, sFr, tFr, 25*time.Millisecond, nil)
	defer stopB()

	sched := NewScheduler(SchedulerConfig{Workers: 4, QueueDepth: 16, TenantInFlight: 1})
	defer sched.Close()
	svc := NewService(ag, netsim.Loopback())
	svc.Sched = sched
	agSrv := httptest.NewServer(svc.Handler())
	defer agSrv.Close()

	exchange := func(service string) error {
		req := &xmltree.Node{Name: "Exchange"}
		req.SetAttr("service", service)
		client := &soap.Client{URL: agSrv.URL}
		_, err := client.Call("Exchange", req)
		return err
	}

	const burst = 6
	var aOK, aShed, aOther atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			switch err := exchange("svc-a"); {
			case err == nil:
				aOK.Add(1)
			case soap.IsOverloaded(err):
				aShed.Add(1)
			default:
				aOther.Add(1)
			}
		}()
	}
	errs := make(chan error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 3; i++ {
			errs <- exchange("svc-b")
		}
	}()
	close(start)
	wg.Wait()
	close(errs)

	for err := range errs {
		if err != nil {
			t.Errorf("tenant b exchange failed while a was over-driven: %v", err)
		}
	}
	if aOther.Load() != 0 {
		t.Errorf("%d tenant-a exchanges failed with a non-overload error", aOther.Load())
	}
	if aOK.Load() < 1 || aShed.Load() < 1 {
		t.Errorf("tenant a: %d ok, %d shed — over-driving one tenant should both serve and shed",
			aOK.Load(), aShed.Load())
	}
	if _, _, _, shed := sched.Stats(); shed != aShed.Load() {
		t.Errorf("scheduler counted %d shed, clients saw %d", shed, aShed.Load())
	}
}

// The control plane's end-to-end gate: concurrent SOAP clients drive
// exchanges for several tenants through the agency's Service and Scheduler
// over loopback HTTP. Every exchange lands, the pool admits and completes
// each one and sheds none, and the plan cache derives once per tenant —
// single-flight coalescing makes the hit count exact.
func TestConcurrentExchangesOverSOAP(t *testing.T) {
	const tenants, clients, ops = 3, 8, 48
	sch := schema.CustomerInfo()
	sFr, tFr := sFragmentation(t, sch), tFragmentation(t, sch)
	ag := New()
	for i := 0; i < tenants; i++ {
		_, stop := startTenant(t, ag, "svc-"+strconv.Itoa(i), sch, sFr, tFr, 2*time.Millisecond, nil)
		defer stop()
	}
	sched := NewScheduler(SchedulerConfig{Workers: 4})
	defer sched.Close()
	svc := NewService(ag, netsim.Loopback())
	svc.Sched = sched
	agSrv := httptest.NewServer(svc.Handler())
	defer agSrv.Close()

	var next atomic.Int64
	errs := make(chan error, ops)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &soap.Client{URL: agSrv.URL}
			for i := next.Add(1) - 1; i < ops; i = next.Add(1) - 1 {
				req := &xmltree.Node{Name: "Exchange"}
				req.SetAttr("service", "svc-"+strconv.Itoa(int(i%tenants)))
				resp, err := client.Call("Exchange", req)
				if err == nil {
					if id, _ := resp.Attr("exchange"); id == "" {
						err = errors.New("ExchangeResponse carries no exchange id")
					}
				}
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)

	for err := range errs {
		if err != nil {
			t.Errorf("exchange failed: %v", err)
		}
	}
	if accepted, completed, failed, shed := sched.Stats(); accepted != ops || completed != ops || failed != 0 || shed != 0 {
		t.Errorf("scheduler stats = %d accepted / %d completed / %d failed / %d shed, want %d/%d/0/0",
			accepted, completed, failed, shed, ops, ops)
	}
	if hits, misses, _, _ := ag.PlanCacheStats(); misses != tenants || hits != ops-tenants {
		t.Errorf("plan cache = %d hits / %d misses, want %d/%d", hits, misses, ops-tenants, tenants)
	}
}

// An Exchange naming a service without both registrations is the client's
// fault and is refused before the scheduler: nothing is admitted, and no
// per-tenant metric is minted under a name the client chose.
func TestExchangeRefusesUnregisteredService(t *testing.T) {
	sch := schema.CustomerInfo()
	ag := New()
	if err := ag.Register("half", RoleSource, wsdlFor(t, sch, sFragmentation(t, sch), "http://src"), "http://src"); err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedulerConfig{Workers: 1})
	defer sched.Close()
	svc := NewService(ag, netsim.Loopback())
	svc.Sched = sched
	met := obs.NewRegistry()
	svc.SetObs(nil, met)
	agSrv := httptest.NewServer(svc.Handler())
	defer agSrv.Close()

	client := &soap.Client{URL: agSrv.URL}
	for _, name := range []string{"nobody", "half", "", "svc-1", "svc-2"} {
		req := &xmltree.Node{Name: "Exchange"}
		req.SetAttr("service", name)
		_, err := client.Call("Exchange", req)
		var f *soap.Fault
		if !errors.As(err, &f) || f.Code != "soap:Client" {
			t.Errorf("Exchange of %q = %v, want a soap:Client fault", name, err)
		}
	}
	if accepted, _, _, shed := sched.Stats(); accepted != 0 || shed != 0 {
		t.Errorf("scheduler saw %d accepted / %d shed for unregistered services, want none", accepted, shed)
	}
	for name := range met.Snapshot() {
		if strings.HasPrefix(name, "exchange.tenant.") || strings.HasPrefix(name, "sched.shed.") {
			t.Errorf("unregistered services minted metric %s", name)
		}
	}
}

// ServicesPage walks the sorted name space in keyset pages.
func TestServicesPage(t *testing.T) {
	sch := schema.CustomerInfo()
	sFr := sFragmentation(t, sch)
	ag := New()
	names := []string{"delta", "alpha", "echo", "charlie", "bravo"}
	for _, n := range names {
		if err := ag.Register(n, RoleSource, wsdlFor(t, sch, sFr, "http://src"), "http://src"); err != nil {
			t.Fatal(err)
		}
	}

	page, next := ag.ServicesPage("", 2)
	if len(page) != 2 || page[0] != "alpha" || page[1] != "bravo" || next != "bravo" {
		t.Fatalf("first page = %v next %q", page, next)
	}
	page, next = ag.ServicesPage("bravo", 2)
	if len(page) != 2 || page[0] != "charlie" || next != "delta" {
		t.Fatalf("second page = %v next %q", page, next)
	}
	page, next = ag.ServicesPage("delta", 2)
	if len(page) != 1 || page[0] != "echo" || next != "" {
		t.Fatalf("last page = %v next %q, want single name and no cursor", page, next)
	}
	if page, _ := ag.ServicesPage("", 0); len(page) != 5 {
		t.Errorf("default page returned %d names, want all 5", len(page))
	}
}

// The List SOAP operation pages with cursor/pageSize and terminates.
func TestListPagination(t *testing.T) {
	sch := schema.CustomerInfo()
	sFr := sFragmentation(t, sch)
	ag := New()
	all := []string{"s1", "s2", "s3", "s4", "s5"}
	for _, n := range all {
		if err := ag.Register(n, RoleSource, wsdlFor(t, sch, sFr, "http://src"), "http://src"); err != nil {
			t.Fatal(err)
		}
	}
	svc := NewService(ag, netsim.Loopback())

	var got []string
	cursor, pages := "", 0
	for {
		req := &xmltree.Node{Name: "List"}
		req.SetAttr("pageSize", "2")
		if cursor != "" {
			req.SetAttr("cursor", cursor)
		}
		resp, err := svc.list(req)
		if err != nil {
			t.Fatal(err)
		}
		count, _ := resp.Attr("count")
		if n, _ := strconv.Atoi(count); n != len(resp.Kids) {
			t.Errorf("count attr %q but %d services on the page", count, len(resp.Kids))
		}
		for _, kid := range resp.Kids {
			name, _ := kid.Attr("name")
			got = append(got, name)
			if len(kid.Kids) != 1 {
				t.Errorf("service %s lists %d parties, want 1", name, len(kid.Kids))
			}
			if role, _ := kid.Kids[0].Attr("role"); role != "source" {
				t.Errorf("service %s party role = %q", name, role)
			}
		}
		if pages++; pages > 10 {
			t.Fatal("pagination never terminated")
		}
		next, ok := resp.Attr("nextCursor")
		if !ok {
			break
		}
		cursor = next
	}
	sort.Strings(got)
	if pages != 3 || len(got) != len(all) {
		t.Errorf("walked %d pages collecting %v, want 3 pages of all 5 services", pages, got)
	}
	for i, n := range all {
		if got[i] != n {
			t.Errorf("collected %v, want %v", got, all)
			break
		}
	}

	if _, err := svc.list(func() *xmltree.Node {
		req := &xmltree.Node{Name: "List"}
		req.SetAttr("pageSize", "-3")
		return req
	}()); err == nil {
		t.Error("negative pageSize was accepted")
	}
}

// One service under concurrent re-registration, planning, and execution:
// the lock split and the cache's epoch guard must hold under -race, and
// every operation against a fully registered service must succeed.
func TestConcurrentRegisterPlanExecute(t *testing.T) {
	sch := schema.CustomerInfo()
	ag := New()
	sFr, tFr := sFragmentation(t, sch), tFragmentation(t, sch)
	_, stop := startTenant(t, ag, "svc", sch, sFr, tFr, 0, nil)
	defer stop()
	srcWSDL := wsdlFor(t, sch, sFr, ag.Party("svc", RoleSource).URL)
	srcURL := ag.Party("svc", RoleSource).URL

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if err := ag.Register("svc", RoleSource, srcWSDL, srcURL); err != nil {
					t.Errorf("Register: %v", err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := ag.Plan("svc", PlanOptions{}); err != nil {
					t.Errorf("Plan: %v", err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				p, err := ag.Plan("svc", PlanOptions{})
				if err != nil {
					t.Errorf("Plan: %v", err)
					continue
				}
				if _, err := ag.Execute("svc", p, netsim.Loopback()); err != nil {
					t.Errorf("Execute: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	// The plane settles consistent: a final plan+exchange works.
	p, err := ag.Plan("svc", PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ag.Execute("svc", p, netsim.Loopback()); err != nil {
		t.Fatal(err)
	}
}
