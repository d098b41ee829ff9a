package reliable

// Delta-exchange reconciliation. A source endpoint keeps, per exchange
// stream, a record-level index of the shipments it rendered: for every
// cross-edge instance, the record IDs (the IDs by which a delta's
// tombstones and re-shipped records replace records at the target) and
// their content hashes as columns in shipment order, filed under the
// session id of the delivery that carried it. A repeat exchange
// names the session whose snapshot the target holds; the source diffs its
// fresh shipment against exactly that entry, in the same pass that hashes
// it, and ships only added or changed records, plus tombstones for IDs
// that disappeared. The entry is also guarded by a fragmentation epoch —
// when the plan's fragment signatures change, the old per-edge keys are
// meaningless and the exchange falls back to a full re-ship.

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"xdx/internal/core"
	"xdx/internal/hashtab"
	"xdx/internal/xmltree"
)

// EdgeHashes is one cross-edge instance's record hashes: each distinct
// record ID once, in shipment order, beside its content hash, with tab
// filing the positions by hashtab.Hash of the ID.
type EdgeHashes struct {
	IDs    []string
	Hashes []uint64
	tab    hashtab.Table
}

// find returns the position of id, whose hashtab.Hash is hid, or -1.
func (e *EdgeHashes) find(hid uint64, id string) int {
	return e.tab.Find(hid, func(p int) bool { return e.IDs[p] == id })
}

// file records hash h for id, whose hashtab.Hash is hid; a repeated id
// keeps the last hash.
func (e *EdgeHashes) file(hid uint64, id string, h uint64) {
	if p := e.find(hid, id); p >= 0 {
		e.Hashes[p] = h
		return
	}
	e.tab.Add(hid, func(p int) uint64 { return hashtab.Hash(e.IDs[p]) })
	e.IDs = hashtab.Append(e.IDs, id)
	e.Hashes = hashtab.Append(e.Hashes, h)
}

// ReconIndex is a source's reconciliation state, keyed by stream and epoch
// (one service/plan exchange pair towards one target). A key holds at most
// two entries: the base the target last said it holds, and the shipment
// rendered since. A key no plan uses any more stays until restart.
type ReconIndex struct {
	mu      sync.Mutex
	streams map[string][]*ReconEntry
}

// ReconEntry is the per-edge hashes of one rendered shipment, filed under
// the session id of the delivery that carried it. It is immutable once
// filed and shared by every exchange that diffs against it.
type ReconEntry struct {
	session string
	Edges   map[string]EdgeHashes
}

// NewReconIndex returns an empty (everywhere-cold) index.
func NewReconIndex() *ReconIndex {
	return &ReconIndex{streams: make(map[string][]*ReconEntry)}
}

// Held returns the entry filed for base — the session whose snapshot the
// target holds — under this stream and epoch, or nil.
func (r *ReconIndex) Held(stream, epoch, base string) *ReconEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entry(stream+"\x00"+epoch, base)
}

// entry returns key's entry filed for base, or nil; r.mu is held.
func (r *ReconIndex) entry(key, base string) *ReconEntry {
	for _, e := range r.streams[key] {
		if base != "" && e.session == base {
			return e
		}
	}
	return nil
}

// Render files the hashes of the shipment rendered for delivery session id
// and returns the entry of base it keeps beside them, or nil; a caller
// diffs only against an entry Held returned that Render then kept, and
// otherwise ships the full snapshot. The base's entry stays diffable until
// a delivery is known to have replaced it, so a delivery that fails never
// becomes the next diff's base; every other entry goes. An id equal to
// base (a reused session id, as from an agency whose counter restarted)
// would file two snapshots under one name, so the key is emptied instead
// and the next exchange ships cold too.
func (r *ReconIndex) Render(stream, epoch, id, base string, edges map[string]EdgeHashes) *ReconEntry {
	key := stream + "\x00" + epoch
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == base {
		delete(r.streams, key)
		return nil
	}
	next := []*ReconEntry{{session: id, Edges: edges}}
	kept := r.entry(key, base)
	if kept != nil {
		next = append(next, kept)
	}
	r.streams[key] = next
	return kept
}

// HashRecord computes a content hash over a record subtree: names, IDs,
// attributes, text, and child order all contribute, so any visible change
// to the record changes its hash. Fields are hashed with hashtab.Hash,
// whose seed is drawn per process; a ReconIndex lives only in memory, so
// every hash it compares came from this process.
func HashRecord(rec *xmltree.Node) uint64 { return hashNode(0, rec) }

// hashNode folds one node, then its kids in order, into h: name, ID,
// PARENT, text, each attribute's name and value, then the kid count, each
// field as its own word, so bytes moved between fields change the hash.
func hashNode(h uint64, n *xmltree.Node) uint64 {
	h = mix(h, hashtab.Hash(n.Name))
	h = mix(h, hashtab.Hash(n.ID))
	h = mix(h, hashtab.Hash(n.Parent))
	h = mix(h, hashtab.Hash(n.Text))
	for _, a := range n.Attrs {
		h = mix(mix(h, hashtab.Hash(a.Name)), hashtab.Hash(a.Value))
	}
	h = mix(h, uint64(len(n.Kids)))
	for _, k := range n.Kids {
		h = hashNode(h, k)
	}
	return h
}

// mix folds word v into h by a multiply–xorshift step, which is ordered.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// HashShipment hashes every record of a materialized shipment: the diff
// pass against no base. The bool reports whether every record carries an
// ID (see Delta.Unkeyed).
func HashShipment(out map[string]*core.Instance) (map[string]EdgeHashes, bool) {
	d := DiffShipment(out, nil)
	return d.Fresh, !d.Unkeyed
}

// Delta is the reconciled difference between a fresh shipment and the
// index entry of the base it is diffed against.
type Delta struct {
	// Out carries, per edge key, only the added or changed records, in the
	// fresh shipment's record order: a pick of the fresh records by
	// position. An edge the base lacks ships its fresh records whole.
	Out map[string]core.Outbound
	// Ship is Out as instances (DiffShipment only).
	Ship map[string]*core.Instance
	// Tombs carries, per edge key, the sorted record IDs present in the
	// index but absent from the fresh shipment.
	Tombs map[string][]string
	// Records and Tombstones count the shipped and deleted records.
	Records, Tombstones int
	// Fresh is the fresh shipment's hashes, to be filed as the next base.
	Fresh map[string]EdgeHashes
	// Unkeyed reports a record without an ID. Such a record cannot be
	// diffed or tombstoned (there is nothing to do it by), so the shipment
	// is not delta-able; Fresh leaves it out.
	Unkeyed bool
}

// DiffShipment is DiffRecords over a materialized shipment, with the
// shipped records as instances in Ship. An edge the base lacks ships its
// fresh instance itself.
func DiffShipment(out map[string]*core.Instance, base map[string]EdgeHashes) *Delta {
	edges := make([]edgeDiff, 0, len(out))
	for key, in := range out {
		edges = append(edges, edgeDiff{key: key, o: core.Outbound{Frag: in.Frag, Recs: in}})
	}
	d := &Delta{Ship: make(map[string]*core.Instance, len(out))}
	_ = d.diff(edges, base, func(e *edgeDiff, warm bool) { // trees build without error
		ship := out[e.key]
		if warm {
			recs := make([]*xmltree.Node, len(e.keep))
			for k, i := range e.keep {
				recs[k] = ship.Records[i]
			}
			ship = &core.Instance{Frag: ship.Frag, Records: recs}
		}
		d.Ship[e.key] = ship
		d.Records += len(ship.Records)
	})
	return d
}

// DiffRecords reconciles a fresh shipment against a base index in one pass
// per edge: each record is built (a batch at a time, into a scratch the
// diff reuses, when the edge holds rows), hashed once, looked up in the base
// edge (marking the base position seen) and filed in the fresh columns.
// Every edge of the fresh shipment appears in Out (possibly with zero
// records — the edge still has to announce itself so the target patches
// it); base positions never seen, and every ID of an edge that vanished
// from the shipment, become tombstones.
func DiffRecords(out map[string]core.Outbound, base map[string]EdgeHashes) (*Delta, error) {
	edges := make([]edgeDiff, 0, len(out))
	for key, o := range out {
		edges = append(edges, edgeDiff{key: key, o: o})
	}
	d := &Delta{Out: make(map[string]core.Outbound, len(out))}
	if err := d.diff(edges, base, func(e *edgeDiff, warm bool) {
		if warm {
			e.o.Recs = core.Pick(e.o.Recs, e.keep)
		}
		d.Out[e.key] = e.o
		d.Records += e.o.Recs.Len()
	}); err != nil {
		return nil, err
	}
	return d, nil
}

// diff diffs the edges in parallel, largest first, on up to GOMAXPROCS
// goroutines, each with a pooled scratch of its own and each edge into its
// own slot, then merges the slots into d in one serial pass — handing each
// to ship to file its shipped records — so d is what a serial pass builds.
func (d *Delta) diff(edges []edgeDiff, base map[string]EdgeHashes, ship func(e *edgeDiff, warm bool)) error {
	slices.SortFunc(edges, func(a, b edgeDiff) int { return b.o.Recs.Len() - a.o.Recs.Len() })
	var next atomic.Int64
	work := func() {
		sc := scratches.Get().(*scratch)
		defer scratches.Put(sc)
		for i := int(next.Add(1) - 1); i < len(edges); i = int(next.Add(1) - 1) {
			edges[i].err = edges[i].diff(base, sc)
		}
		clear(sc.batch[:cap(sc.batch)]) // pooled, it must not pin slabs the arena let go
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(edges)) - 1 {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
	d.Tombs, d.Fresh = make(map[string][]string), make(map[string]EdgeHashes, len(edges))
	for i := range edges {
		e := &edges[i]
		if e.err != nil {
			return e.err
		}
		_, warm := base[e.key]
		ship(e, warm)
		d.Fresh[e.key] = e.fresh
		d.tomb(e.key, e.dead)
		d.Unkeyed = d.Unkeyed || e.unkeyed
	}
	for key, prev := range base {
		if _, live := d.Fresh[key]; !live {
			d.tomb(key, slices.Clone(prev.IDs))
		}
	}
	return nil
}

// diffBatch is how many records a diff builds into its scratch at a time.
const diffBatch = 256

// scratches keeps diff scratches across renders. Reusing one is safe
// because nothing built in it outlives its batch: the arena is reset after
// every batch, and the IDs filed from it live in its string slabs, which a
// reset never writes again.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// scratch is where a diff builds records a batch at a time: the batch,
// and the arena the records built from rows live in until the next.
type scratch struct {
	arena xmltree.Arena
	batch []*xmltree.Node
}

// edgeDiff is one edge's slot in a diff: its fresh records, and what
// diffing them against the base edge found.
type edgeDiff struct {
	key     string
	o       core.Outbound
	fresh   EdgeHashes // the fresh records' hashes
	keep    []int      // positions a warm edge ships: added, changed or without an ID
	dead    []string   // IDs of the base edge no fresh record carries
	unkeyed bool       // a fresh record has no ID
	err     error
}

// diff diffs the edge's fresh records, built a batch at a time into sc,
// against its entry in base.
func (e *edgeDiff) diff(base map[string]EdgeHashes, sc *scratch) error {
	prev, warm := base[e.key]
	n := e.o.Recs.Len()
	e.fresh = EdgeHashes{IDs: make([]string, 0, n), Hashes: make([]uint64, 0, n)}
	e.fresh.tab.Init(n, 0)
	seen, nseen := make([]bool, len(prev.IDs)), 0
	for lo := 0; lo < n; lo += diffBatch {
		var err error
		if sc.batch, err = e.o.Recs.Build(sc.batch[:0], lo, min(n, lo+diffBatch), &sc.arena); err != nil {
			return err
		}
		for k, rec := range sc.batch {
			if rec.ID == "" {
				e.unkeyed = true
				if warm {
					e.keep = hashtab.Append(e.keep, lo+k)
				}
				continue
			}
			hid, h := hashtab.Hash(rec.ID), HashRecord(rec)
			p := prev.find(hid, rec.ID)
			if p >= 0 && !seen[p] {
				seen[p] = true
				nseen++
			}
			if warm && (p < 0 || prev.Hashes[p] != h) {
				e.keep = hashtab.Append(e.keep, lo+k)
			}
			e.fresh.file(hid, rec.ID, h)
		}
		sc.arena.Reset()
	}
	if nseen < len(prev.IDs) {
		e.dead = make([]string, 0, len(prev.IDs)-nseen)
		for p, id := range prev.IDs {
			if !seen[p] {
				e.dead = append(e.dead, id)
			}
		}
	}
	return nil
}

// tomb files an edge's dead IDs, sorted, unless there are none.
func (d *Delta) tomb(key string, dead []string) {
	if len(dead) == 0 {
		return
	}
	sort.Strings(dead)
	d.Tombs[key] = dead
	d.Tombstones += len(dead)
}
