package reliable

// Delta-exchange reconciliation. A source endpoint keeps, per exchange
// stream, a record-level index of the shipments it rendered: for every
// cross-edge instance, a map from record ID (the same IDs the target Ledger
// dedups on) to a content hash, filed under the session id of the delivery
// that carried it. A repeat exchange names the session whose snapshot the
// target holds; the source diffs its fresh shipment against exactly that
// entry and ships only added or changed records, plus tombstones for IDs
// that disappeared. The entry is also guarded by a fragmentation epoch —
// when the plan's fragment signatures change, the old per-edge keys are
// meaningless and the exchange falls back to a full re-ship.

import (
	"sort"
	"strconv"
	"sync"

	"xdx/internal/core"
	"xdx/internal/xmltree"
)

// EdgeHashes maps record ID to content hash for one cross-edge instance.
type EdgeHashes map[string]uint64

// ReconIndex is a source's reconciliation state, keyed by stream and epoch
// (one service/plan exchange pair towards one target). A key holds at most
// two entries: the base the target last said it holds, and the shipment
// rendered since. A key no plan uses any more stays until restart.
type ReconIndex struct {
	mu      sync.Mutex
	streams map[string][]reconEntry
}

type reconEntry struct {
	session string
	edges   map[string]EdgeHashes
}

// NewReconIndex returns an empty (everywhere-cold) index.
func NewReconIndex() *ReconIndex {
	return &ReconIndex{streams: make(map[string][]reconEntry)}
}

// Render files the hashes of the shipment rendered for delivery session id
// and returns the entry of base — the session whose snapshot the target
// holds — when one was filed under this stream and epoch; ok=false means
// the caller ships the full snapshot. The base's entry stays diffable
// until a delivery is known to have replaced it, so a delivery that fails
// never becomes the next diff's base; every other entry goes. An id equal
// to base (a reused session id, as from an agency whose counter restarted)
// would file two snapshots under one name, so the key is emptied instead
// and the next exchange ships cold too. The returned maps are shared;
// callers must not mutate them.
func (r *ReconIndex) Render(stream, epoch, id, base string, edges map[string]EdgeHashes) (map[string]EdgeHashes, bool) {
	key := stream + "\x00" + epoch
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == base {
		delete(r.streams, key)
		return nil, false
	}
	next := []reconEntry{{session: id, edges: edges}}
	for _, e := range r.streams[key] {
		if base != "" && e.session == base {
			r.streams[key] = append(next, e)
			return e.edges, true
		}
	}
	r.streams[key] = next
	return nil, false
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

// HashShipment hashes every record of a materialized shipment. The bool
// reports whether every record carries an ID: records without IDs cannot
// be reconciled (there is nothing to diff or tombstone by), so such
// shipments are not delta-able.
func HashShipment(out map[string]*core.Instance) (map[string]EdgeHashes, bool) {
	edges := make(map[string]EdgeHashes, len(out))
	complete := true
	for key, in := range out {
		eh := make(EdgeHashes, len(in.Records))
		for _, rec := range in.Records {
			if rec.ID == "" {
				complete = false
				continue
			}
			eh[rec.ID] = HashRecord(rec)
		}
		edges[key] = eh
	}
	return edges, complete
}

// Delta is the reconciled difference between a fresh shipment and the
// index entry of the base it is diffed against.
type Delta struct {
	// Ship carries, per edge key, only the added or changed records, in
	// the fresh shipment's record order.
	Ship map[string]*core.Instance
	// Tombs carries, per edge key, the sorted record IDs present in the
	// index but absent from the fresh shipment.
	Tombs map[string][]string
	// Records and Tombstones count the shipped and deleted records.
	Records, Tombstones int
}

// DiffShipment reconciles a fresh shipment against a base index. Every
// edge of the fresh shipment appears in Ship (possibly with zero records —
// the edge still has to announce itself so the target patches it); edges
// that vanished entirely from the shipment contribute all their base IDs
// as tombstones.
func DiffShipment(out map[string]*core.Instance, base map[string]EdgeHashes) *Delta {
	d := &Delta{Ship: make(map[string]*core.Instance, len(out)), Tombs: make(map[string][]string)}
	for key, in := range out {
		prev := base[key]
		kept := &core.Instance{Frag: in.Frag}
		fresh := make(map[string]bool, len(in.Records))
		for _, rec := range in.Records {
			fresh[rec.ID] = true
			if h, ok := prev[rec.ID]; ok && h == HashRecord(rec) {
				continue
			}
			kept.Records = append(kept.Records, rec)
		}
		d.Ship[key] = kept
		d.Records += len(kept.Records)
		var dead []string
		for id := range prev {
			if !fresh[id] {
				dead = append(dead, id)
			}
		}
		if len(dead) > 0 {
			sort.Strings(dead)
			d.Tombs[key] = dead
			d.Tombstones += len(dead)
		}
	}
	for key, prev := range base {
		if _, live := out[key]; live || len(prev) == 0 {
			continue
		}
		dead := make([]string, 0, len(prev))
		for id := range prev {
			dead = append(dead, id)
		}
		sort.Strings(dead)
		d.Tombs[key] = dead
		d.Tombstones += len(dead)
	}
	return d
}
