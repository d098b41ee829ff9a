package registry

// The delta-exchange property suite (ISSUE 10): repeat exchanges under
// seeded churn must ship only what changed, and the patched target must
// hold record-for-record what a full re-ship would have delivered —
// including when the target dies mid-delta and the agency falls back to a
// full re-ship against the restarted, base-less endpoint.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"slices"
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
	"xdx/internal/schema"
	"xdx/internal/soap"
	"xdx/internal/telgen"
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
// each, so every round exercises records, updates, and tombstones — and as
// many pairs of surviving items swap their locations, which move under
// their new item with their IDs. IDs of surviving nodes are never
// reassigned; stability of keys across rounds is what makes the
// reconciliation diff meaningful.
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
	// Moves: per pairs of surviving items swap their locations.
	for j := 0; j < per; j++ {
		swapKid(slots[perm[per+2*j]].item, slots[perm[per+2*j+1]].item, "location")
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

// canonTree sorts every node's kids by instance ID — integer IDs in
// numeric order, as shorter-first then lexical order gives, and any other
// ID lexically among its length — stably, so ID-less siblings keep document
// order, and returns the tree. A delta lands changed records after the
// stored ones while a full re-ship writes everything in shipment order;
// canonical order is what "record-for-record equal" compares.
func canonTree(n *xmltree.Node) *xmltree.Node {
	for _, k := range n.Kids {
		canonTree(k)
	}
	sort.SliceStable(n.Kids, func(i, j int) bool {
		a, b := n.Kids[i].ID, n.Kids[j].ID
		return len(a) < len(b) || len(a) == len(b) && a < b
	})
	return n
}

// deltaRig is one churning source feeding two targets of one layout:
// service "Churn" targets an endpoint whose store keeps its delta base,
// "ChurnCtl" one whose store exec clears before each exchange, dropping
// its base, so the same ExecOptions land a delta as row edits on one side
// and a cold full re-ship on the other — the control is the ground truth
// the delta target is held to, and its WireBytes are the full-ship cost
// the delta must undercut.
type deltaRig struct {
	t                *testing.T
	ag               *Agency
	docs             []*xmltree.Node
	src, tgtD, tgtC  *relstore.Store
	plans            map[string]*Plan
	met, srcMet, tgt *obs.Registry
}

// newDeltaRig loads docs into a source laid out by sFr, of relative speed
// srcSpeed (a slow one leaves the target to split what it ships), and
// plans both services greedily.
func newDeltaRig(t *testing.T, sFr, tFr *core.Fragmentation, srcSpeed float64, docs []*xmltree.Node) *deltaRig {
	r := &deltaRig{t: t, docs: docs, plans: map[string]*Plan{}, met: obs.NewRegistry(), srcMet: obs.NewRegistry(), tgt: obs.NewRegistry()}
	newStore := func(fr *core.Fragmentation) *relstore.Store {
		st, err := relstore.NewStore(fr)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	r.src, r.tgtD, r.tgtC = newStore(sFr), newStore(tFr), newStore(tFr)
	r.reload()
	srcEP := endpoint.New("S", &endpoint.RelBackend{Store: r.src, Speed: srcSpeed, CanCombine: true}, nil)
	srcEP.SetObs(nil, r.srcMet)
	epD := endpoint.New("TD", &endpoint.RelBackend{Store: r.tgtD, Speed: 1, CanCombine: true}, nil)
	epD.SetObs(nil, r.tgt)
	epC := endpoint.New("TC", &endpoint.RelBackend{Store: r.tgtC, Speed: 1, CanCombine: true}, nil)
	srcSrv, srvD, srvC := httptest.NewServer(srcEP.Handler()), httptest.NewServer(epD.Handler()), httptest.NewServer(epC.Handler())
	t.Cleanup(func() { srcSrv.Close(); srvD.Close(); srvC.Close() })
	r.ag = New()
	sch := sFr.Schema
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
		if err := r.ag.Register(reg.svc, reg.role, wsdlFor(t, sch, reg.fr, reg.url), reg.url); err != nil {
			t.Fatal(err)
		}
	}
	for _, svc := range []string{"Churn", "ChurnCtl"} {
		var err error
		if r.plans[svc], err = r.ag.Plan(svc, PlanOptions{Algorithm: AlgGreedy}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// reload replaces the source's rows with the current documents.
func (r *deltaRig) reload() {
	r.src.Clear()
	for _, doc := range r.docs {
		if err := r.src.LoadDocument(doc.Clone()); err != nil {
			r.t.Fatal(err)
		}
	}
}

// exec runs one delta-enabled exchange of svc; the control's starts cold.
func (r *deltaRig) exec(svc string, seed int64) *Report {
	r.t.Helper()
	if svc == "ChurnCtl" {
		r.tgtC.Clear()
	}
	rep, err := r.ag.ExecuteOpts(svc, r.plans[svc], ExecOptions{
		Link:        netsim.Loopback(),
		Reliability: soakConfig(seed),
		Delta:       true,
		Metrics:     r.met,
	})
	if err != nil {
		r.t.Fatalf("%s exchange failed: %v", svc, err)
	}
	return rep
}

// sameTargets reports whether the delta target holds what the control
// does: both reassembled into documents whose kids are sorted stably by
// ID (see canonTree), so ID-less siblings keep their order.
func (r *deltaRig) sameTargets() bool {
	r.t.Helper()
	return xmltree.Equal(canonTree(assembleDocs(r.t, r.tgtC)), canonTree(assembleDocs(r.t, r.tgtD)))
}

// assembleDocs is assembleTarget for a store that may hold several
// documents: it combines every fragment into the root one, each once all
// parents of its root are in, as core.Document does, and returns the
// documents as the kids of one unnamed node.
func assembleDocs(t testing.TB, st *relstore.Store) *xmltree.Node {
	t.Helper()
	fr := st.Layout
	scan := func(f *core.Fragment) *core.Instance {
		in, err := st.ScanFragment(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	cur := scan(fr.Fragments[0])
	done := map[string]bool{fr.Fragments[0].Name: true}
	for len(done) < len(fr.Fragments) {
		n := len(done)
		for _, f := range fr.Fragments {
			if done[f.Name] || slices.ContainsFunc(fr.Schema.Parents(f.Root), func(p string) bool { return !cur.Frag.Elems[p] }) {
				continue
			}
			var err error
			if cur, err = core.Combine(fr.Schema, cur, scan(f)); err != nil {
				t.Fatal(err)
			}
			done[f.Name] = true
		}
		if len(done) == n {
			t.Fatalf("fragments of %d cannot be merged", len(fr.Fragments))
		}
	}
	return &xmltree.Node{Kids: cur.Records}
}

// churnArm is one layout pair of the churn property: documents, the
// layouts, the source's speed, and the seeded churn that mutates the
// documents in place and reports how many records it deleted.
type churnArm struct {
	name     string
	docs     func() []*xmltree.Node
	sFr, tFr *core.Fragmentation
	srcSpeed float64
	churn    func(docs []*xmltree.Node, rng *rand.Rand, frac float64, round int) (dels int)
}

// TestDeltaExchangeChurnProperty: across seeded churn rounds of 0, 1, 10
// and 50 %, (previous snapshot + delta exchange) must equal (full
// snapshot) record for record, on three layout pairs: XMark MF→LF, where
// several edges' records gather into one target record; XMark LF→MF behind
// a slow source, where the target splits each shipped record across
// several tables and its text leaves arrive without IDs; and telgen's S→T,
// whose Order_Service records each hold an order's service. The delta's
// cost is counted, not timed: endpoint.delta.rows, the rows the apply
// deleted plus those it inserted, stays under 5 % of the target's rows at
// 1 % churn and grows with the churn.
func TestDeltaExchangeChurnProperty(t *testing.T) {
	xsch, tsch := xmark.Schema(), telgen.Schema()
	paperS, err := core.PaperSFragmentation(tsch)
	if err != nil {
		t.Fatal(err)
	}
	paperT, err := core.PaperTFragmentation(tsch)
	if err != nil {
		t.Fatal(err)
	}
	auction := func() []*xmltree.Node {
		return []*xmltree.Node{xmark.Generate(xmark.Config{TargetBytes: 60_000, Seed: 42})}
	}
	auctionChurn := func(docs []*xmltree.Node, rng *rand.Rand, frac float64, round int) int {
		dels, _, _ := churnAuction(docs[0], rng, frac, round)
		return dels
	}
	for _, arm := range []churnArm{
		{"xmark MF to LF", auction, core.MostFragmented(xsch), core.LeastFragmented(xsch), 1, auctionChurn},
		{"xmark LF to MF", auction, core.LeastFragmented(xsch), core.MostFragmented(xsch), 0.01, auctionChurn},
		{"telgen S to T", func() []*xmltree.Node { return telgen.Customers(telgen.Config{Customers: 100, Seed: 7}) },
			paperS, paperT, 1, churnTelecom},
	} {
		t.Run(arm.name, func(t *testing.T) { churnRounds(t, arm) })
	}
}

func churnRounds(t *testing.T, arm churnArm) {
	r := newDeltaRig(t, arm.sFr, arm.tFr, arm.srcSpeed, arm.docs())
	if arm.srcSpeed < 1 && !splitsAtTarget(r.plans["Churn"]) {
		t.Fatal("no shipped edge spans several target tables: the arm tests nothing it claims")
	}
	// hop is what the source sent the target during one exchange: its
	// ExecuteTarget requests, the only calls it makes.
	hop1 := r.srcMet.Counter("soap.client.req_bytes")
	rowsEdited := r.tgt.Counter("endpoint.delta.rows")
	var hop1Full, prevRows int64
	rng := rand.New(rand.NewSource(11))
	for round, frac := range []float64{0, 0.01, 0.10, 0.50} {
		dels := 0
		if round > 0 {
			dels = arm.churn(r.docs, rng, frac, round)
			r.reload()
		}
		before, rows := hop1.Value(), rowsEdited.Value()
		repD := r.exec("Churn", int64(round+1))
		hop1Bytes, rows := hop1.Value()-before, rowsEdited.Value()-rows
		repC := r.exec("ChurnCtl", int64(round+100))

		if repC.Delta {
			t.Fatalf("round %d: control exchange ran in delta mode from a cleared store", round)
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
				t.Errorf("round %d: delta shipped %d records, want > 0", round, repD.DeltaRecords)
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
			if frac <= 0.01 && rows*20 >= int64(r.tgtD.Rows()) {
				t.Errorf("round %d: the 1%% delta edited %d of the target's %d rows, want under 5%%", round, rows, r.tgtD.Rows())
			}
			if rows <= prevRows {
				t.Errorf("round %d (churn %.0f%%): the delta edited %d rows, want more than the %d of the churn before", round, frac*100, rows, prevRows)
			}
			prevRows = rows
		}
		if !r.sameTargets() {
			t.Fatalf("round %d (churn %.0f%%): delta-edited target differs from full re-ship", round, frac*100)
		}
	}
	if v := r.met.Counter("exchange.delta.exchanges").Value(); v < 3 {
		t.Errorf("exchange.delta.exchanges = %d, want >= 3 (one per warm churn round)", v)
	}
	if v := r.met.Counter("exchange.delta.cold").Value(); v < 1 {
		t.Errorf("exchange.delta.cold = %d, want >= 1 (round 0 starts cold)", v)
	}
	if v := r.met.Counter("exchange.delta.tombstones").Value(); v < 3 {
		t.Errorf("exchange.delta.tombstones = %d, want >= 3", v)
	}
	if v := r.met.Counter("exchange.delta.fallbacks").Value(); v != 0 {
		t.Errorf("exchange.delta.fallbacks = %d, want 0", v)
	}
}

// TestDeltaBaseFollowsStoreGeneration: the target's rows are its delta
// base, so anything else that reloads them ends the base. After a warm
// delta round, the target store is cleared directly (as the benchmark's
// bulk prepare does) or a second stream full-loads into it; either way
// DeltaStatus must answer cold, the next exchange ship the full snapshot,
// and the target match the full re-ship control.
func TestDeltaBaseFollowsStoreGeneration(t *testing.T) {
	sch := xmark.Schema()
	sFr, tFr := core.MostFragmented(sch), core.LeastFragmented(sch)
	for _, reload := range []string{"cleared", "second stream"} {
		t.Run(reload, func(t *testing.T) {
			r := newDeltaRig(t, sFr, tFr, 1, []*xmltree.Node{xmark.Generate(xmark.Config{TargetBytes: 60_000, Seed: 42})})
			rng := rand.New(rand.NewSource(3))
			for round := 0; round < 2; round++ {
				if round > 0 {
					churnAuction(r.docs[0], rng, 0.05, round)
					r.reload()
				}
				if rep := r.exec("Churn", int64(round+1)); rep.Delta != (round > 0) {
					t.Fatalf("round %d: delta=%v", round, rep.Delta)
				}
			}
			switch reload {
			case "cleared":
				r.tgtD.Clear()
			default:
				// The same source's data under another stream name: a full
				// load into the target that is not Churn's.
				src, tgt := r.ag.parties("Churn")
				for _, p := range []struct {
					*Party
					fr *core.Fragmentation
				}{{src, sFr}, {tgt, tFr}} {
					if err := r.ag.Register("Other", p.Role, wsdlFor(t, sch, p.fr, p.URL), p.URL); err != nil {
						t.Fatal(err)
					}
				}
				plan, err := r.ag.Plan("Other", PlanOptions{Algorithm: AlgGreedy})
				if err != nil {
					t.Fatal(err)
				}
				r.plans["Other"] = plan
				churnAuction(r.docs[0], rng, 0.05, 2)
				r.reload()
				if rep := r.exec("Other", 9); rep.Delta {
					t.Fatal("the second stream's first exchange ran as a delta")
				}
			}
			churnAuction(r.docs[0], rng, 0.05, 3)
			r.reload()
			fallbacks := r.met.Counter("exchange.delta.fallbacks").Value()
			if rep := r.exec("Churn", 10); rep.Delta {
				t.Fatal("the exchange after the reload ran as a delta against rows that are not its base")
			}
			if r.met.Counter("exchange.delta.fallbacks").Value() != fallbacks {
				t.Error("the reload was found by a ColdDelta fallback, not by DeltaStatus answering cold")
			}
			r.exec("ChurnCtl", 11)
			if !r.sameTargets() {
				t.Fatal("the target differs from the full re-ship control")
			}
			// The full ship is the new base: the next round is a delta again.
			churnAuction(r.docs[0], rng, 0.05, 4)
			r.reload()
			if rep := r.exec("Churn", 12); !rep.Delta {
				t.Error("the round after the cold re-ship did not run as a delta")
			}
			r.exec("ChurnCtl", 13)
			if !r.sameTargets() {
				t.Fatal("the next delta's target differs from the full re-ship control")
			}
		})
	}
}

// TestDeltaThatDoesNotFitFallsBack: a row deleted behind the endpoint's
// back — through the store's own row edits on another stream, which keep
// Churn's base — makes the next delta, which tombstones or rewrites that
// record, not fit the rows. The target faults ColdDelta before any row
// changes, the agency's fallback re-ships in full, and the target ends
// equal to the full re-ship control.
func TestDeltaThatDoesNotFitFallsBack(t *testing.T) {
	sch := xmark.Schema()
	sFr, tFr := core.MostFragmented(sch), core.LeastFragmented(sch)
	for _, change := range []string{"tombstoned", "rewritten"} {
		t.Run(change, func(t *testing.T) {
			r := newDeltaRig(t, sFr, tFr, 1, []*xmltree.Node{xmark.Generate(xmark.Config{TargetBytes: 60_000, Seed: 42})})
			r.exec("Churn", 1)
			region := r.docs[0].Find("regions").Kids[0]
			item := region.Kids[0]
			rows := r.tgtD.Rows()
			r.tgtD.SetBase("behind", "", "b")
			if _, err := r.tgtD.ApplyDelta("behind", "", "b", "c", []relstore.Edit{{Frag: tFr.FragmentOf("item"), Tombs: []string{item.ID}}}); err != nil {
				t.Fatal(err)
			}
			if r.tgtD.Rows() != rows-1 {
				t.Fatalf("deleting item %s behind the endpoint's back left %d of %d rows", item.ID, r.tgtD.Rows(), rows)
			}
			if change == "tombstoned" {
				region.Kids = region.Kids[1:]
			} else {
				item.Find("idescription").Text = "rewritten behind a deleted row"
			}
			r.reload()
			rep := r.exec("Churn", 2)
			if rep.Delta {
				t.Error("the delta that does not fit the rows was reported as applied")
			}
			if v := r.met.Counter("exchange.delta.fallbacks").Value(); v != 1 {
				t.Errorf("exchange.delta.fallbacks = %d, want 1", v)
			}
			if v := r.tgt.Counter("endpoint.delta.cold").Value(); v != 1 {
				t.Errorf("endpoint.delta.cold = %d, want 1", v)
			}
			r.exec("ChurnCtl", 3)
			if !r.sameTargets() {
				t.Fatal("the target differs from the full re-ship control")
			}
		})
	}
}

// splitsAtTarget reports whether some edge the plan ships carries
// elements of several target tables.
func splitsAtTarget(p *Plan) bool {
	tFr := p.Mapping.Target
	for _, op := range p.Program.Ops {
		for _, e := range p.Program.Out(op) {
			if p.Assign[e.From.ID] != p.Assign[e.To.ID] {
				for el := range e.Frag.Elems {
					if tFr.FragmentOf(el) != tFr.FragmentOf(e.Frag.Root) {
						return true
					}
				}
			}
		}
	}
	return false
}

// churnTelecom mutates CustomerInfo documents in place: of the orders
// (each holding its service), the lines and the features, about frac/3
// each are deleted, rewritten (service name, telephone number, feature id)
// and cloned under fresh IDs beside their originals; and as many pairs of
// orders swap their services, which move with their IDs, lines and
// features. It returns how many records it deleted.
func churnTelecom(docs []*xmltree.Node, rng *rand.Rand, frac float64, round int) int {
	type slot struct{ parent, n *xmltree.Node }
	kinds := map[string][]slot{}
	var walk func(p, n *xmltree.Node)
	walk = func(p, n *xmltree.Node) {
		switch n.Name {
		case "Order", "Line", "Feature":
			kinds[n.Name] = append(kinds[n.Name], slot{p, n})
		}
		for _, k := range n.Kids {
			walk(n, k)
		}
	}
	for _, doc := range docs {
		walk(nil, doc)
	}
	next, dels := 0, 0
	var fresh func(n *xmltree.Node, parent string) *xmltree.Node
	fresh = func(n *xmltree.Node, parent string) *xmltree.Node {
		next++
		c := &xmltree.Node{Name: n.Name, Text: n.Text, ID: fmt.Sprintf("r%d.%d", round, next), Parent: parent}
		for _, k := range n.Kids {
			c.AddKid(fresh(k, c.ID))
		}
		return c
	}
	for _, kind := range []string{"Order", "Line", "Feature"} {
		slots := kinds[kind]
		per := max(1, int(frac*float64(len(slots))/3))
		perm := rng.Perm(len(slots))
		for _, i := range perm[:per] {
			s := slots[i]
			s.parent.Kids = slices.DeleteFunc(s.parent.Kids, func(k *xmltree.Node) bool { return k == s.n })
			dels++
		}
		for _, i := range perm[per : 2*per] {
			leaf := slots[i].n
			for len(leaf.Kids) > 0 && leaf.Kids[0].Text == "" {
				leaf = leaf.Kids[0]
			}
			if len(leaf.Kids) > 0 {
				leaf = leaf.Kids[0]
			}
			leaf.Text = fmt.Sprintf("churned round %d", round)
		}
		for _, i := range perm[2*per : 3*per] {
			s := slots[i]
			at := slices.Index(s.parent.Kids, s.n) + 1
			s.parent.Kids = slices.Insert(s.parent.Kids, at, fresh(s.n, s.parent.ID))
		}
	}
	orders := kinds["Order"]
	perm := rng.Perm(len(orders))
	for j := 0; j < max(1, int(frac*float64(len(orders))/3)); j++ {
		swapKid(orders[perm[2*j]].n, orders[perm[2*j+1]].n, "Service")
	}
	return dels
}

// swapKid swaps the kids named name of a and b, which keep their IDs and
// take their new parent's.
func swapKid(a, b *xmltree.Node, name string) {
	ia := slices.IndexFunc(a.Kids, func(k *xmltree.Node) bool { return k.Name == name })
	ib := slices.IndexFunc(b.Kids, func(k *xmltree.Node) bool { return k.Name == name })
	if ia >= 0 && ib >= 0 {
		a.Kids[ia], b.Kids[ib] = b.Kids[ib], a.Kids[ia]
		a.Kids[ia].Parent, b.Kids[ib].Parent = a.ID, b.ID
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
// and the target ends equal to the full re-ship control. The reused case
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
		tgtC.Clear() // the control starts cold: a full re-ship
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
// filter ships nothing, and a filter that fails schema checking fails the
// drive with a soap:Client fault before any endpoint is called.
func TestPushdownFilterExchange(t *testing.T) {
	sch := schema.CustomerInfo()
	ag := New()
	var reqs atomic.Int64
	tgtStore, done := startTenant(t, ag, "svc", sch, sFragmentation(t, sch), tFragmentation(t, sch), 0, &reqs)
	defer done()
	plan, err := ag.Plan("svc", PlanOptions{Algorithm: AlgGreedy})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ag.ExecuteOpts("svc", plan, ExecOptions{
		Link: netsim.Loopback(), Filter: `CustName = "Nobody"`,
	}); err != nil {
		t.Fatal(err)
	}
	if tgtStore.Rows() != 0 {
		t.Errorf("non-matching pushdown filter delivered %d rows", tgtStore.Rows())
	}
	rep, err := ag.ExecuteOpts("svc", plan, ExecOptions{
		Link: netsim.Loopback(), Filter: `CustName = "Ann"`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tgtStore.Rows() == 0 || rep.WireBytes == 0 {
		t.Error("matching pushdown filter delivered nothing")
	}
	tgtStore.Clear()

	// NoSuchElem is outside the schema. ServiceName is in the schema but
	// not in the source's root fragment: such a filter can never match a
	// root record, so it would silently ship nothing — the drive must
	// refuse it loudly.
	for _, expr := range []string{"NoSuchElem = 3", "ServiceName = 'x'"} {
		before := reqs.Load()
		var f *soap.Fault
		if _, err := ag.ExecuteOpts("svc", plan, ExecOptions{Link: netsim.Loopback(), Filter: expr}); !errors.As(err, &f) || f.Code != "soap:Client" {
			t.Errorf("filter %q: err = %v, want a soap:Client fault", expr, err)
		}
		if n := reqs.Load() - before; n != 0 {
			t.Errorf("filter %q: the refused drive called the endpoints %d times", expr, n)
		}
	}
	if tgtStore.Rows() != 0 {
		t.Errorf("refused filters loaded %d rows", tgtStore.Rows())
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
