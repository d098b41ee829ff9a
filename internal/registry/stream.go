package registry

// The agency's side of the streaming wire path: the source response is
// decoded incrementally into instances as it arrives (SAX events straight
// into the shipment decoder), so no envelope tree is ever materialized for
// the exchange's dominant payload.

import (
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

// sourceRespScan consumes an ExecuteSourceResponse stream: the shipment
// subtree flows into the shipment decoder, the timing rides on the
// trailing <timing> element.
type sourceRespScan struct {
	dec *wire.ShipmentDecoder

	depth int
	skip  int

	sub      bool
	subDepth int

	queryMillis string
	sawShipment bool
	codec       string
}

// ObserveEnvelope implements soap.EnvelopeObserver: the response
// envelope's codec attribute is the server's negotiation answer.
func (s *sourceRespScan) ObserveEnvelope(attrs []xmltree.Attr) {
	s.codec = scanAttr(attrs, "codec")
}

// StartElement implements xmltree.AttrHandler.
func (s *sourceRespScan) StartElement(name string, attrs []xmltree.Attr) error {
	if s.skip > 0 {
		s.skip++
		return nil
	}
	if s.sub {
		s.subDepth++
		return s.dec.StartElement(name, attrs)
	}
	s.depth++
	if s.depth == 2 {
		switch name {
		case "shipment":
			s.sawShipment = true
			s.sub, s.subDepth = true, 1
			return s.dec.StartElement(name, attrs)
		case "timing":
			s.queryMillis = scanAttr(attrs, "queryMillis")
		}
		s.depth--
		s.skip = 1
	}
	return nil
}

// Text implements xmltree.AttrHandler.
func (s *sourceRespScan) Text(data string) error {
	if s.skip > 0 || !s.sub {
		return nil
	}
	return s.dec.Text(data)
}

// TextBytes implements xmltree.TextBytesHandler, keeping the scanner's
// zero-copy text path intact through to the shipment decoder.
func (s *sourceRespScan) TextBytes(data []byte) error {
	if s.skip > 0 || !s.sub {
		return nil
	}
	return s.dec.TextBytes(data)
}

// EndElement implements xmltree.AttrHandler.
func (s *sourceRespScan) EndElement(name string) error {
	switch {
	case s.skip > 0:
		s.skip--
	case s.sub:
		s.subDepth--
		if s.subDepth == 0 {
			s.sub = false
			s.depth--
		}
		return s.dec.EndElement(name)
	default:
		s.depth--
	}
	return nil
}
