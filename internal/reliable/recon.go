package reliable

// Delta-exchange reconciliation. The agency keeps, per exchange stream, a
// record-level index of what the previous successful session delivered:
// for every cross-edge instance, a map from record ID (the same IDs the
// target Ledger dedups on) to a content hash. A repeat exchange diffs the
// freshly computed shipment against the index and ships only added or
// changed records, plus tombstones for IDs that disappeared. The index is
// guarded by a fragmentation epoch — when the plan's fragment signatures
// change, the old per-edge keys are meaningless and the exchange falls
// back to a full re-ship.

import (
	"sort"
	"strconv"
	"sync"

	"xdx/internal/core"
	"xdx/internal/xmltree"
)

// EdgeHashes maps record ID to content hash for one cross-edge instance.
type EdgeHashes map[string]uint64

// ReconIndex is the agency-side reconciliation state, keyed by stream (one
// per service/plan exchange pair).
type ReconIndex struct {
	mu      sync.Mutex
	streams map[string]*reconStream
}

type reconStream struct {
	epoch string
	edges map[string]EdgeHashes
}

// NewReconIndex returns an empty (everywhere-cold) index.
func NewReconIndex() *ReconIndex {
	return &ReconIndex{streams: make(map[string]*reconStream)}
}

// Snapshot returns the committed hashes for a stream if the index is warm
// at this epoch. A cold stream or an epoch mismatch returns ok=false — the
// caller must full-reship. The returned maps are shared; callers must not
// mutate them.
func (r *ReconIndex) Snapshot(stream, epoch string) (map[string]EdgeHashes, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.streams[stream]
	if s == nil || s.epoch != epoch {
		return nil, false
	}
	return s.edges, true
}

// Commit replaces a stream's index with the hashes of a successfully
// delivered shipment at the given epoch.
func (r *ReconIndex) Commit(stream, epoch string, edges map[string]EdgeHashes) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.streams[stream] = &reconStream{epoch: epoch, edges: edges}
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
// previous session's index.
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
