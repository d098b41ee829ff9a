package registry

// The agency's side of the streaming wire path: the source response's
// shipment is kept as the chunk bytes the source wrote (wire.Relay), so
// neither an envelope tree nor the records are ever materialized. A delta
// exchange reads no differently: the source reconciled before it wrote, and
// what it decided rides on the trailing <timing> element.

import (
	"io"

	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// scanAttr returns the named attribute from a reused scan-attrs slice.
func scanAttr(attrs []xmltree.Attr, name string) string {
	for _, a := range attrs {
		if a.Name == name {
			return a.Value
		}
	}
	return ""
}

// sourceCapture consumes an ExecuteSourceResponse stream for the relay:
// each chunk element of the shipment goes into the relay as the bytes the
// source wrote, unread but for its seq; the timing, and a delta exchange's
// reconciliation outcome, ride on the trailing <timing> element.
type sourceCapture struct {
	relay *wire.Relay

	depth  int
	shipAt int // depth of the open <shipment>, 0 outside one

	queryMillis  string
	payloadBytes string
	sawShipment  bool
	codec        string

	// delta is the source's reconciliation outcome on a delta exchange:
	// "1" when the shipment is a delta of deltaRecords records and
	// tombstones deletions, "cold" or "unkeyed" when it is the full
	// snapshot, "" when the exchange asked for no delta.
	delta, deltaRecords, tombstones string
}

// ObserveEnvelope implements soap.EnvelopeObserver: the response
// envelope's codec attribute is the server's negotiation answer.
func (s *sourceCapture) ObserveEnvelope(attrs []xmltree.Attr) {
	s.codec = scanAttr(attrs, "codec")
}

// StartRaw implements xmltree.RawHandler, claiming the shipment's chunks.
func (s *sourceCapture) StartRaw(name string) io.Writer {
	if s.shipAt > 0 && s.depth == s.shipAt && (name == "instance" || name == "tombstones") {
		return s.relay.BeginChunk()
	}
	return nil
}

// EndRaw implements xmltree.RawHandler.
func (s *sourceCapture) EndRaw(string) error { return s.relay.EndChunk() }

// StartElement implements xmltree.AttrHandler.
func (s *sourceCapture) StartElement(name string, attrs []xmltree.Attr) error {
	s.depth++
	switch {
	case s.shipAt > 0:
	case name == "shipment":
		s.shipAt, s.sawShipment = s.depth, true
	case name == "timing":
		s.queryMillis, s.payloadBytes = scanAttr(attrs, "queryMillis"), scanAttr(attrs, "payloadBytes")
		s.delta, s.deltaRecords, s.tombstones = scanAttr(attrs, "delta"), scanAttr(attrs, "records"), scanAttr(attrs, "tombstones")
	}
	return nil
}

// Text implements xmltree.AttrHandler.
func (s *sourceCapture) Text(string) error { return nil }

// EndElement implements xmltree.AttrHandler.
func (s *sourceCapture) EndElement(string) error {
	if s.depth == s.shipAt {
		s.shipAt = 0
	}
	s.depth--
	return nil
}
