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
	"slices"
	"sort"
	"strconv"
	"sync"

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

// FNV-1a, 64 bit (hash/fnv's New64a, inlined so hashing a record neither
// allocates a hasher nor stages the fields in a buffer).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// HashRecord computes an FNV-1a content hash over a record subtree: names,
// IDs, attributes, text, and child order all contribute, so any visible
// change to the record changes its hash.
func HashRecord(rec *xmltree.Node) uint64 { return hashNode(fnvOffset64, rec) }

// hashNode folds one node, then its kids in order, into h: NUL-terminated
// name, ID, PARENT and text, name=value NUL per attribute, the decimal kid
// count, 0x01. The terminators keep field boundaries in the hash, so
// moving bytes between adjacent fields changes it.
func hashNode(h uint64, n *xmltree.Node) uint64 {
	h = fnvByte(fnvString(h, n.Name), 0)
	h = fnvByte(fnvString(h, n.ID), 0)
	h = fnvByte(fnvString(h, n.Parent), 0)
	h = fnvByte(fnvString(h, n.Text), 0)
	for _, a := range n.Attrs {
		h = fnvByte(fnvString(h, a.Name), '=')
		h = fnvByte(fnvString(h, a.Value), 0)
	}
	var dec [20]byte
	for _, c := range strconv.AppendInt(dec[:0], int64(len(n.Kids)), 10) {
		h = fnvByte(h, c)
	}
	h = fnvByte(h, 1)
	for _, k := range n.Kids {
		h = hashNode(h, k)
	}
	return h
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
	d := newDelta(len(out))
	d.Ship = make(map[string]*core.Instance, len(out))
	var sc scratch
	for key, in := range out {
		prev, warm := base[key]
		ship := in
		if warm {
			ship = &core.Instance{Frag: in.Frag}
		}
		d.edge(key, in, prev, warm, &sc, func(i int) { ship.Records = append(ship.Records, in.Records[i]) }) // trees build without error
		d.Ship[key] = ship
		d.Records += len(ship.Records)
	}
	d.vanished(base)
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
	d := newDelta(len(out))
	d.Out = make(map[string]core.Outbound, len(out))
	var sc scratch
	for key, o := range out {
		prev, warm := base[key]
		var keep []int
		if err := d.edge(key, o.Recs, prev, warm, &sc, func(i int) { keep = append(keep, i) }); err != nil {
			return nil, err
		}
		if warm {
			o.Recs = core.Pick(o.Recs, keep)
		}
		d.Out[key] = o
		d.Records += o.Recs.Len()
	}
	d.vanished(base)
	return d, nil
}

func newDelta(edges int) *Delta {
	return &Delta{Tombs: make(map[string][]string), Fresh: make(map[string]EdgeHashes, edges)}
}

// diffBatch is how many records edge builds into its scratch at a time.
const diffBatch = 256

// scratch is where a diff builds records a batch at a time: the batch,
// and the arena the records built from rows live in until the next.
type scratch struct {
	arena xmltree.Arena
	batch []*xmltree.Node
}

// edge diffs one edge's fresh records against its base entry prev: it
// files their hashes as the edge's fresh columns, calls ship with the
// position of each record a warm edge ships — added, changed or without an
// ID — and tombstones the IDs of prev that no record carries. Records are
// built a batch at a time into sc.
func (d *Delta) edge(key string, recs core.Records, prev EdgeHashes, warm bool, sc *scratch, ship func(i int)) error {
	n := recs.Len()
	fresh := EdgeHashes{IDs: make([]string, 0, n), Hashes: make([]uint64, 0, n)}
	fresh.tab.Init(n, 0)
	seen := make([]bool, len(prev.IDs))
	for lo := 0; lo < n; lo += diffBatch {
		var err error
		if sc.batch, err = recs.Build(sc.batch[:0], lo, min(n, lo+diffBatch), &sc.arena); err != nil {
			return err
		}
		for k, rec := range sc.batch {
			if rec.ID == "" {
				d.Unkeyed = true
				if warm {
					ship(lo + k)
				}
				continue
			}
			hid, h := hashtab.Hash(rec.ID), HashRecord(rec)
			p := prev.find(hid, rec.ID)
			if p >= 0 {
				seen[p] = true
			}
			if warm && (p < 0 || prev.Hashes[p] != h) {
				ship(lo + k)
			}
			fresh.file(hid, rec.ID, h)
		}
		sc.arena.Reset()
	}
	d.Fresh[key] = fresh
	var dead []string
	for p, id := range prev.IDs {
		if !seen[p] {
			dead = append(dead, id)
		}
	}
	d.tomb(key, dead)
	return nil
}

// vanished tombstones every ID of the base edges the fresh shipment lacks.
func (d *Delta) vanished(base map[string]EdgeHashes) {
	for key, prev := range base {
		if _, live := d.Fresh[key]; !live {
			d.tomb(key, slices.Clone(prev.IDs))
		}
	}
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
