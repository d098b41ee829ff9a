package registry

// The delta-exchange property suite (ISSUE 10): repeat exchanges under
// seeded churn must ship only what changed, and the patched target must
// hold record-for-record what a full re-ship would have delivered —
// including when the target dies mid-delta and the agency falls back to a
// full re-ship against the restarted, base-less endpoint.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"

	"xdx/internal/core"
	"xdx/internal/durable"
	"xdx/internal/endpoint"
	"xdx/internal/netsim"
	"xdx/internal/obs"
	"xdx/internal/relstore"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// maxIntID returns the largest integer instance ID in the subtree, so
// churn can mint fresh IDs that never collide with live ones.
func maxIntID(n *xmltree.Node) int {
	m := 0
	var walk func(*xmltree.Node)
	walk = func(n *xmltree.Node) {
		if v, err := strconv.Atoi(n.ID); err == nil && v > m {
			m = v
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(n)
	return m
}

// cloneWithIDs deep-copies a subtree assigning fresh sequential IDs (and
// consistent Parent links), the way a real insert enters a store: new
// rows, new keys, existing rows untouched.
func cloneWithIDs(n *xmltree.Node, parent string, next *int) *xmltree.Node {
	*next++
	c := &xmltree.Node{Name: n.Name, Text: n.Text, ID: strconv.Itoa(*next), Parent: parent}
	for _, k := range n.Kids {
		c.AddKid(cloneWithIDs(k, c.ID, next))
	}
	return c
}

// churnAuction mutates an xmark auction document in place: of the item
// population, about frac/3 each are deleted, updated (idescription
// rewritten), and freshly inserted (cloned with new IDs) — at least one of
// each, so every round exercises records, updates, and tombstones. IDs of
// surviving nodes are never reassigned; stability of keys across rounds is
// what makes the reconciliation diff meaningful.
func churnAuction(doc *xmltree.Node, rng *rand.Rand, frac float64, round int) (dels, upds, adds int) {
	regions := doc.Find("regions")
	type slot struct{ region, item *xmltree.Node }
	var slots []slot
	for _, region := range regions.Kids {
		for _, it := range region.Kids {
			if it.Name == "item" {
				slots = append(slots, slot{region, it})
			}
		}
	}
	n := len(slots)
	per := int(frac * float64(n) / 3)
	if per < 1 {
		per = 1
	}
	if 3*per > n {
		per = n / 3
	}
	perm := rng.Perm(n)

	// Deletes: drop the first per items from their regions.
	doomed := map[*xmltree.Node]bool{}
	for _, i := range perm[:per] {
		doomed[slots[i].item] = true
	}
	for _, region := range regions.Kids {
		kept := region.Kids[:0]
		for _, k := range region.Kids {
			if !doomed[k] {
				kept = append(kept, k)
			}
		}
		region.Kids = kept
	}
	// Updates: rewrite the idescription text of the next per items (their
	// IDs stay put, so only the content hash moves).
	for _, i := range perm[per : 2*per] {
		it := slots[i].item
		if d := it.Find("idescription"); d != nil {
			d.Text = fmt.Sprintf("churned round %d item %s", round, it.ID)
		}
	}
	// Adds: clone the next per surviving items under fresh IDs.
	next := maxIntID(doc)
	for _, i := range perm[2*per : 3*per] {
		src := slots[i]
		fresh := cloneWithIDs(src.item, src.region.ID, &next)
		if d := fresh.Find("iname"); d != nil {
			d.Text = fmt.Sprintf("added round %d as %s", round, fresh.ID)
		}
		src.region.AddKid(fresh)
	}
	return per, per, per
}

// canonTree sorts every node's kids by integer instance ID (stable, so
// same-key siblings keep document order) and returns the tree. A delta
// patch appends changed records after the retained base while a full
// re-ship writes everything in shipment order; canonical order is what
// "record-for-record equal" compares.
func canonTree(n *xmltree.Node) *xmltree.Node {
	for _, k := range n.Kids {
		canonTree(k)
	}
	sort.SliceStable(n.Kids, func(i, j int) bool {
		a, _ := strconv.Atoi(n.Kids[i].ID)
		b, _ := strconv.Atoi(n.Kids[j].ID)
		return a < b
	})
	return n
}

// TestDeltaExchangeChurnProperty is the tentpole's property test: across
// seeded churn rounds, (previous snapshot + delta exchange) must equal
// (full snapshot) record-for-record. Two services share one churning
// source: "Churn" targets an endpoint that retains delta bases, "ChurnCtl"
// targets one with retention disabled, so the same ExecOptions produce a
// delta patch on one side and a cold full re-ship on the other — the
// control is the ground truth the patched target is held to, and its
// WireBytes are the full-ship cost the delta must undercut.
func TestDeltaExchangeChurnProperty(t *testing.T) {
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 60_000, Seed: 42})
	sFr := core.MostFragmented(sch)
	tFr := core.LeastFragmented(sch)

	srcStore, err := relstore.NewStore(sFr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srcStore.LoadDocument(doc.Clone()); err != nil {
		t.Fatal(err)
	}
	tgtD, err := relstore.NewStore(tFr)
	if err != nil {
		t.Fatal(err)
	}
	tgtC, err := relstore.NewStore(tFr)
	if err != nil {
		t.Fatal(err)
	}

	srcEP := endpoint.New("S", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, nil)
	srcMet := obs.NewRegistry()
	srcEP.SetObs(nil, srcMet)
	epD := endpoint.New("TD", &endpoint.RelBackend{Store: tgtD, Speed: 1, CanCombine: true}, nil)
	epC := endpoint.New("TC", &endpoint.RelBackend{Store: tgtC, Speed: 1, CanCombine: true}, nil)
	epC.SetDeltaRetention(false)
	srcSrv := httptest.NewServer(srcEP.Handler())
	defer srcSrv.Close()
	srvD := httptest.NewServer(epD.Handler())
	defer srvD.Close()
	srvC := httptest.NewServer(epC.Handler())
	defer srvC.Close()

	ag := New()
	for _, reg := range []struct {
		svc, url string
		fr       *core.Fragmentation
		role     Role
	}{
		{"Churn", srcSrv.URL, sFr, RoleSource},
		{"Churn", srvD.URL, tFr, RoleTarget},
		{"ChurnCtl", srcSrv.URL, sFr, RoleSource},
		{"ChurnCtl", srvC.URL, tFr, RoleTarget},
	} {
		if err := ag.Register(reg.svc, reg.role, wsdlFor(t, sch, reg.fr, reg.url), reg.url); err != nil {
			t.Fatal(err)
		}
	}
	planD, err := ag.Plan("Churn", PlanOptions{Algorithm: AlgGreedy})
	if err != nil {
		t.Fatal(err)
	}
	planC, err := ag.Plan("ChurnCtl", PlanOptions{Algorithm: AlgGreedy})
	if err != nil {
		t.Fatal(err)
	}

	met := obs.NewRegistry()
	exec := func(svc string, plan *Plan, seed int64) *Report {
		t.Helper()
		rep, err := ag.ExecuteOpts(svc, plan, ExecOptions{
			Link:        netsim.Loopback(),
			Reliability: soakConfig(seed),
			Delta:       true,
			Metrics:     met,
		})
		if err != nil {
			t.Fatalf("%s exchange failed: %v", svc, err)
		}
		return rep
	}

	// hop is what the source sent the target during one exchange: its
	// ExecuteTarget requests, the only calls it makes.
	hop1 := srcMet.Counter("soap.client.req_bytes")
	var hop1Full int64
	rng := rand.New(rand.NewSource(11))
	for round, frac := range []float64{0, 0.01, 0.10, 0.50} {
		var dels, upds, adds int
		if round > 0 {
			dels, upds, adds = churnAuction(doc, rng, frac, round)
			srcStore.Clear()
			if err := srcStore.LoadDocument(doc.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		before := hop1.Value()
		repD := exec("Churn", planD, int64(round+1))
		hop1Bytes := hop1.Value() - before
		repC := exec("ChurnCtl", planC, int64(round+100))

		if repC.Delta {
			t.Fatalf("round %d: control exchange ran in delta mode despite retention off", round)
		}
		if round == 0 {
			if repD.Delta {
				t.Fatalf("round 0: first exchange claimed delta mode with a cold index")
			}
			hop1Full = hop1Bytes
		} else {
			// The source diffs before it writes, so its delivery carries
			// the change, not the snapshot.
			if frac <= 0.10 && hop1Bytes*3 >= hop1Full {
				t.Errorf("round %d (churn %.0f%%): the source's delivery carried %d bytes, want below a third of the full snapshot's %d",
					round, frac*100, hop1Bytes, hop1Full)
			}
			if !repD.Delta {
				t.Fatalf("round %d (churn %.0f%%): warm repeat exchange did not run as a delta", round, frac*100)
			}
			if repD.DeltaRecords <= 0 {
				t.Errorf("round %d: delta shipped %d records, want > 0 (%d updates + %d adds churned)",
					round, repD.DeltaRecords, upds, adds)
			}
			if repD.TombstoneRecords < dels {
				t.Errorf("round %d: delta shipped %d tombstones, want >= %d deletions",
					round, repD.TombstoneRecords, dels)
			}
			if repD.WireBytes >= repC.WireBytes {
				t.Errorf("round %d (churn %.0f%%): delta wire bytes %d not below full re-ship %d",
					round, frac*100, repD.WireBytes, repC.WireBytes)
			}
			if frac <= 0.01 && repD.WireBytes*3 > repC.WireBytes {
				t.Errorf("round %d: 1%%-churn delta shipped %d wire bytes vs %d full — far too little savings",
					round, repD.WireBytes, repC.WireBytes)
			}
		}

		got := canonTree(assembleTarget(t, tgtD))
		want := canonTree(assembleTarget(t, tgtC))
		if !xmltree.Equal(want, got) {
			t.Fatalf("round %d (churn %.0f%%): delta-patched target differs from full re-ship", round, frac*100)
		}
	}
	if v := met.Counter("exchange.delta.exchanges").Value(); v < 3 {
		t.Errorf("exchange.delta.exchanges = %d, want >= 3 (one per warm churn round)", v)
	}
	if v := met.Counter("exchange.delta.cold").Value(); v < 1 {
		t.Errorf("exchange.delta.cold = %d, want >= 1 (round 0 starts cold)", v)
	}
	if v := met.Counter("exchange.delta.tombstones").Value(); v < 3 {
		t.Errorf("exchange.delta.tombstones = %d, want >= 3", v)
	}
}

// TestDeltaExchangeCrashRestartFallsBack is the mid-delta crash arm under
// group commit (-fsync=batch): the target dies while a 50%-churn delta is
// streaming in, restarts from its WAL directory with an empty store and no
// retained base, and the agency's retry must convert the ColdDelta fault
// into a full re-ship on a fresh session — ending with target contents
// identical to an uninterrupted full exchange of the churned document.
func TestDeltaExchangeCrashRestartFallsBack(t *testing.T) {
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 60_000, Seed: 42})
	sFr := core.MostFragmented(sch)
	tFr := core.LeastFragmented(sch)

	srcStore, err := relstore.NewStore(sFr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srcStore.LoadDocument(doc.Clone()); err != nil {
		t.Fatal(err)
	}
	srcEP := endpoint.New("S", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, nil)
	srcSrv := httptest.NewServer(srcEP.Handler())
	defer srcSrv.Close()

	walDir := t.TempDir()
	openTarget := func() (*endpoint.Endpoint, *relstore.Store, *durable.Journal) {
		st, err := relstore.NewStore(tFr)
		if err != nil {
			t.Fatal(err)
		}
		j, err := durable.OpenJournal(walDir, durable.Options{Fsync: durable.FsyncBatch})
		if err != nil {
			t.Fatal(err)
		}
		ep := endpoint.New("T", &endpoint.RelBackend{Store: st, Speed: 1, CanCombine: true}, nil)
		if _, err := ep.SetJournal(j); err != nil {
			t.Fatal(err)
		}
		return ep, st, j
	}
	epA, _, jA := openTarget()
	proxy := &crashProxy{handler: epA.Handler()}
	tgtSrv := httptest.NewServer(proxy)
	defer tgtSrv.Close()

	ag := New()
	if err := ag.Register("Churn", RoleSource, wsdlFor(t, sch, sFr, srcSrv.URL), srcSrv.URL); err != nil {
		t.Fatal(err)
	}
	if err := ag.Register("Churn", RoleTarget, wsdlFor(t, sch, tFr, tgtSrv.URL), tgtSrv.URL); err != nil {
		t.Fatal(err)
	}
	plan, err := ag.Plan("Churn", PlanOptions{Algorithm: AlgGreedy})
	if err != nil {
		t.Fatal(err)
	}

	met := obs.NewRegistry()
	opts := func(seed int64) ExecOptions {
		return ExecOptions{Link: netsim.Loopback(), Reliability: soakConfig(seed), Delta: true, Metrics: met}
	}
	// Round 0: cold full ship warms the index and retains the base.
	rep0, err := ag.ExecuteOpts("Churn", plan, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep0.Delta {
		t.Fatal("round 0 claimed delta mode with a cold index")
	}

	// Heavy churn, then arm the kill: the delta delivery (well past the
	// probe/status request sizes) tears mid-stream and the endpoint is
	// rebuilt over the same WAL with a fresh store and no delta bases.
	rng := rand.New(rand.NewSource(7))
	churnAuction(doc, rng, 0.5, 1)
	srcStore.Clear()
	if err := srcStore.LoadDocument(doc.Clone()); err != nil {
		t.Fatal(err)
	}
	var tgtB *relstore.Store
	proxy.arm(6_000, func() http.Handler {
		jA.Close()
		epB, stB, _ := openTarget()
		tgtB = stB
		return epB.Handler()
	})

	rep1, err := ag.ExecuteOpts("Churn", plan, opts(2))
	if err != nil {
		t.Fatalf("exchange did not survive the mid-delta kill: %v", err)
	}
	if tgtB == nil {
		t.Fatal("the kill never fired — the delta delivery stayed under the tear budget")
	}
	if rep1.Delta {
		t.Error("report still claims delta mode after the fallback full re-ship")
	}
	if rep1.DeltaRecords != 0 || rep1.TombstoneRecords != 0 {
		t.Errorf("fallback report kept delta counts: records=%d tombstones=%d", rep1.DeltaRecords, rep1.TombstoneRecords)
	}
	if v := met.Counter("exchange.delta.fallbacks").Value(); v < 1 {
		t.Errorf("exchange.delta.fallbacks = %d, want >= 1", v)
	}

	// Ground truth: an uninterrupted full exchange of the churned document
	// into a fresh target.
	ctlStore, err := relstore.NewStore(tFr)
	if err != nil {
		t.Fatal(err)
	}
	ctlEP := endpoint.New("C", &endpoint.RelBackend{Store: ctlStore, Speed: 1, CanCombine: true}, nil)
	ctlSrv := httptest.NewServer(ctlEP.Handler())
	defer ctlSrv.Close()
	if err := ag.Register("ChurnCtl", RoleSource, wsdlFor(t, sch, sFr, srcSrv.URL), srcSrv.URL); err != nil {
		t.Fatal(err)
	}
	if err := ag.Register("ChurnCtl", RoleTarget, wsdlFor(t, sch, tFr, ctlSrv.URL), ctlSrv.URL); err != nil {
		t.Fatal(err)
	}
	planCtl, err := ag.Plan("ChurnCtl", PlanOptions{Algorithm: AlgGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ag.ExecuteOpts("ChurnCtl", planCtl, ExecOptions{Link: netsim.Loopback(), Reliability: soakConfig(9)}); err != nil {
		t.Fatal(err)
	}
	want := canonTree(assembleTarget(t, ctlStore))
	got := canonTree(assembleTarget(t, tgtB))
	if !xmltree.Equal(want, got) {
		t.Error("restarted target's contents differ from an uninterrupted full exchange")
	}
}

// TestDeltaExchangeFailedDeliveryKeepsBase: the source renders round 1,
// but every delivery of it fails — the target's ExecuteTarget is down for
// the round while its DeltaStatus still answers. The next round must not
// diff against the snapshot that never landed: it ships either a delta
// against the base the target actually holds or a counted cold full ship,
// and the target ends equal to the retention-off control. The reused case
// hands the source, in round 1, the held base's own session id — what an
// agency whose session counter restarted sends — so the undelivered render
// and the held snapshot share a name.
func TestDeltaExchangeFailedDeliveryKeepsBase(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		name := "fresh-session"
		if reuse {
			name = "reused-base-session"
		}
		t.Run(name, func(t *testing.T) { failedDeliveryRounds(t, reuse) })
	}
}

var (
	sessionAttr = regexp.MustCompile(` session="[^"]*"`)
	baseAttr    = regexp.MustCompile(` base="([^"]+)"`)
)

func failedDeliveryRounds(t *testing.T, reuse bool) {
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 60_000, Seed: 42})
	sFr := core.MostFragmented(sch)
	tFr := core.LeastFragmented(sch)
	srcStore, err := relstore.NewStore(sFr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srcStore.LoadDocument(doc.Clone()); err != nil {
		t.Fatal(err)
	}
	tgtD, err := relstore.NewStore(tFr)
	if err != nil {
		t.Fatal(err)
	}
	tgtC, err := relstore.NewStore(tFr)
	if err != nil {
		t.Fatal(err)
	}
	srcEP := endpoint.New("S", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, nil)
	epD := endpoint.New("TD", &endpoint.RelBackend{Store: tgtD, Speed: 1, CanCombine: true}, nil)
	epC := endpoint.New("TC", &endpoint.RelBackend{Store: tgtC, Speed: 1, CanCombine: true}, nil)
	epC.SetDeltaRetention(false)
	// sentDelta records whether a delivery the target refused opened as a
	// delta: what the source rendered for the failed round.
	var down, sentDelta atomic.Bool
	srvD := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() && r.Header.Get("SOAPAction") == `"ExecuteTarget"` {
			head := make([]byte, 1024)
			n, _ := io.ReadFull(r.Body, head)
			if bytes.Contains(head[:n], []byte(` delta="1"`)) {
				sentDelta.Store(true)
			}
			http.Error(w, "target down", http.StatusServiceUnavailable)
			return
		}
		epD.Handler().ServeHTTP(w, r)
	}))
	defer srvD.Close()
	srcSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() && reuse && r.Header.Get("SOAPAction") == `"ExecuteSource"` {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if m := baseAttr.FindSubmatch(body); m != nil {
				body = sessionAttr.ReplaceAllLiteral(body, []byte(` session="`+string(m[1])+`"`))
			}
			r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		}
		srcEP.Handler().ServeHTTP(w, r)
	}))
	defer srcSrv.Close()
	srvC := httptest.NewServer(epC.Handler())
	defer srvC.Close()

	ag := New()
	for _, reg := range []struct {
		svc, url string
		fr       *core.Fragmentation
		role     Role
	}{
		{"Churn", srcSrv.URL, sFr, RoleSource},
		{"Churn", srvD.URL, tFr, RoleTarget},
		{"ChurnCtl", srcSrv.URL, sFr, RoleSource},
		{"ChurnCtl", srvC.URL, tFr, RoleTarget},
	} {
		if err := ag.Register(reg.svc, reg.role, wsdlFor(t, sch, reg.fr, reg.url), reg.url); err != nil {
			t.Fatal(err)
		}
	}
	plans := map[string]*Plan{}
	for _, svc := range []string{"Churn", "ChurnCtl"} {
		if plans[svc], err = ag.Plan(svc, PlanOptions{Algorithm: AlgGreedy}); err != nil {
			t.Fatal(err)
		}
	}
	met := obs.NewRegistry()
	exec := func(svc string) (*Report, error) {
		return ag.ExecuteOpts(svc, plans[svc], ExecOptions{
			Link: netsim.Loopback(), Reliability: retrying(8, 2), Delta: true, Metrics: met,
		})
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 3; round++ {
		if round > 0 {
			churnAuction(doc, rng, 0.10, round)
			srcStore.Clear()
			if err := srcStore.LoadDocument(doc.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		down.Store(round == 1)
		cold := met.Counter("exchange.delta.cold").Value()
		rep, err := exec("Churn")
		down.Store(false)
		switch {
		case round == 1:
			if err == nil {
				t.Fatal("round 1: exchange succeeded although every delivery failed")
			}
			if rep == nil {
				t.Fatal("round 1: no report")
			}
			if !reuse && !sentDelta.Load() {
				t.Fatal("round 1: the source did not render a delta, so the failed delivery tests nothing")
			}
			if reuse && sentDelta.Load() {
				t.Error("round 1: the source diffed against the base that shares the delivery's session id")
			}
		case err != nil:
			t.Fatalf("round %d: %v", round, err)
		case round == 2 && !rep.Delta && met.Counter("exchange.delta.cold").Value() == cold:
			t.Error("round 2: neither a delta nor a counted cold full ship")
		}
		if _, err := exec("ChurnCtl"); err != nil {
			t.Fatalf("round %d control: %v", round, err)
		}
		if round == 1 {
			continue
		}
		if !xmltree.Equal(canonTree(assembleTarget(t, tgtC)), canonTree(assembleTarget(t, tgtD))) {
			t.Fatalf("round %d: target differs from the full re-ship control", round)
		}
	}
}

// TestDeltaExchangeDefaultOptions: deltas ride the sessioned chunk
// protocol, which every exchange now speaks — so Delta needs no
// Reliability config. The first exchange ships the full snapshot cold, the
// repeat runs warm as a (here empty) delta, and the target converges on the
// snapshot instead of accumulating it twice.
func TestDeltaExchangeDefaultOptions(t *testing.T) {
	ag, plan, tgtStore, _, done := startAuctionExchange(t)
	defer done()
	opts := ExecOptions{Link: netsim.Loopback(), Delta: true}
	cold, err := ag.ExecuteOpts("Auction", plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := tgtStore.Rows()
	if cold.Delta || rows == 0 {
		t.Fatalf("first exchange: delta=%v rows=%d, want a cold full ship", cold.Delta, rows)
	}
	warm, err := ag.ExecuteOpts("Auction", plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Delta || warm.DeltaRecords != 0 || warm.WireBytes >= cold.WireBytes {
		t.Errorf("repeat exchange: delta=%v records=%d wire=%d (cold %d), want an empty warm delta",
			warm.Delta, warm.DeltaRecords, warm.WireBytes, cold.WireBytes)
	}
	if tgtStore.Rows() != rows {
		t.Errorf("target holds %d rows after the repeat, want %d", tgtStore.Rows(), rows)
	}
}

// TestPushdownFilterExchange drives the compiled-filter path end to end:
// a comparison filter ships only matching root records, a non-matching
// filter ships nothing, and a filter that fails schema checking fails at
// plan time, before any endpoint is probed with it.
func TestPushdownFilterExchange(t *testing.T) {
	ag, plan, tgtStore, done := startExchange(t, AlgGreedy)
	defer done()

	if _, err := ag.ExecuteOpts("CustomerInfoService", plan, ExecOptions{
		Link: netsim.Loopback(), Filter: `CustName = "Nobody"`,
	}); err != nil {
		t.Fatal(err)
	}
	if tgtStore.Rows() != 0 {
		t.Errorf("non-matching pushdown filter delivered %d rows", tgtStore.Rows())
	}
	tgtStore.Clear()
	rep, err := ag.ExecuteOpts("CustomerInfoService", plan, ExecOptions{
		Link: netsim.Loopback(), Filter: `CustName = "Ann"`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tgtStore.Rows() == 0 || rep.WireBytes == 0 {
		t.Error("matching pushdown filter delivered nothing")
	}

	if _, err := ag.Plan("CustomerInfoService", PlanOptions{Algorithm: AlgGreedy, Filter: "NoSuchElem = 3"}); err == nil {
		t.Error("plan accepted a filter naming an element outside the schema")
	}
	// ServiceName is in the schema but not in the source's root fragment:
	// such a filter can never match a root record, so it would silently
	// ship nothing — Plan must refuse it loudly.
	if _, err := ag.Plan("CustomerInfoService", PlanOptions{Algorithm: AlgGreedy, Filter: "ServiceName = 'x'"}); err == nil {
		t.Error("plan accepted a filter outside the source root fragment")
	}
}

// TestPlanKeyCoversEveryPlanOption fails when a PlanOptions field (at any
// nesting depth) is not folded into the plan-cache key: two plans
// differing only in that field would silently collide in the cache and
// one caller would execute under the other's derivation. Adding a field
// to PlanOptions must extend planKey (and, if the kind is new here, this
// probe) in the same change.
func TestPlanKeyCoversEveryPlanOption(t *testing.T) {
	sch := xmark.Schema()
	src := &Party{URL: "http://src", Fragmentation: core.MostFragmented(sch)}
	tgt := &Party{URL: "http://tgt", Fragmentation: core.LeastFragmented(sch)}
	base := planKey(src, tgt, PlanOptions{})

	var opts PlanOptions
	var walk func(v reflect.Value, prefix string)
	walk = func(v reflect.Value, prefix string) {
		tp := v.Type()
		for i := 0; i < v.NumField(); i++ {
			f, ft := v.Field(i), tp.Field(i)
			name := prefix + ft.Name
			if f.Kind() == reflect.Struct {
				walk(f, name+".")
				continue
			}
			opts = PlanOptions{}
			switch f.Kind() {
			case reflect.String:
				f.SetString("plankey-probe")
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				f.SetInt(7919)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				f.SetUint(7919)
			case reflect.Float32, reflect.Float64:
				f.SetFloat(2.25)
			case reflect.Bool:
				f.SetBool(true)
			default:
				t.Fatalf("PlanOptions.%s has kind %s this probe cannot mutate — extend the probe and planKey together", name, f.Kind())
			}
			if planKey(src, tgt, opts) == base {
				t.Errorf("PlanOptions.%s is not folded into the plan-cache key", name)
			}
		}
	}
	walk(reflect.ValueOf(&opts).Elem(), "")
}
