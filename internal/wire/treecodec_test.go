package wire

import (
	"fmt"
	"strings"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// The tree shipment codec builds a whole shipment as one xmltree.Node. No
// exchange runs it; it is the reference FuzzStreamShipment and the codec
// tests check the streaming encoder and decoder against.

// EncodeShipmentCodec serializes cross-edge instances as a shipment tree
// in codec, producing the same wire bytes as the streaming encoder for the
// same shipment: tagged XML, or bin's base64 chunk text.
func EncodeShipmentCodec(out map[string]*core.Instance, sch *schema.Schema, codec Codec) (*xmltree.Node, error) {
	root := &xmltree.Node{Name: "shipment"}
	for _, key := range sortedKeys(out) {
		in := out[key]
		if codec.Kind != CodecBin {
			root.AddKid(encodeInstance(key, in))
			continue
		}
		ix := &xmltree.Node{Name: "instance"}
		ix.SetAttr("edge", key)
		ix.SetAttr("frag", in.Frag.Name)
		ix.SetAttr("format", CodecBin)
		if codec.Flate {
			ix.SetAttr("enc", "flate")
		}
		if len(in.Records) > 0 {
			var buf strings.Builder
			if err := writeBinChunk(&buf, in.Records, sch, codec.Flate); err != nil {
				return nil, err
			}
			ix.Text = buf.String()
		}
		root.AddKid(ix)
	}
	return root, nil
}

// DecodeShipmentAuto rebuilds the inbound instance map from a shipment
// tree in either encoding.
func DecodeShipmentAuto(x *xmltree.Node, sch *schema.Schema, lookup func(name string) *core.Fragment) (map[string]*core.Instance, error) {
	if x.Name != "shipment" {
		return nil, fmt.Errorf("wire: expected shipment, got %q", x.Name)
	}
	out := make(map[string]*core.Instance, len(x.Kids))
	for _, ix := range x.Kids {
		key, _ := ix.Attr("edge")
		fragName, _ := ix.Attr("frag")
		f := lookup(fragName)
		if f == nil {
			return nil, fmt.Errorf("wire: shipment references unknown fragment %q", fragName)
		}
		if format, _ := ix.Attr("format"); format == CodecBin {
			in := &core.Instance{Frag: f}
			if ix.Text != "" {
				enc, _ := ix.Attr("enc")
				recs, err := readBinChunk([]byte(ix.Text), sch, enc)
				if err != nil {
					return nil, err
				}
				in.Records = recs
			}
			out[key] = in
			continue
		}
		for _, rec := range ix.Kids {
			restoreParents(rec)
		}
		out[key] = &core.Instance{Frag: f, Records: ix.Kids}
	}
	return out, nil
}

// encodeInstance is the tree codec's tagged-XML chunk for one cross-edge
// instance. Identifiers are shipped compactly — the paper notes XML-format
// shipping adds only small overhead: record roots keep ID and PARENT
// (Definition 3.1), interior non-leaf nodes keep only ID (their PARENT is
// recovered from nesting on receipt), and leaf values travel bare.
func encodeInstance(key string, in *core.Instance) *xmltree.Node {
	ix := &xmltree.Node{Name: "instance"}
	ix.SetAttr("edge", key)
	ix.SetAttr("frag", in.Frag.Name)
	for _, rec := range in.Records {
		ix.AddKid(stripIDs(rec, true))
	}
	return ix
}

// stripIDs copies a record keeping only the identifiers the receiver
// needs.
func stripIDs(n *xmltree.Node, isRoot bool) *xmltree.Node {
	cp := &xmltree.Node{Name: n.Name, Text: n.Text}
	cp.Attrs = append(cp.Attrs, n.Attrs...)
	switch {
	case isRoot:
		cp.ID, cp.Parent = n.ID, n.Parent
	case len(n.Kids) > 0 || n.Text == "":
		// Interior or potentially-joinable empty element: keep the join key.
		cp.ID = n.ID
	}
	for _, k := range n.Kids {
		cp.Kids = append(cp.Kids, stripIDs(k, false))
	}
	return cp
}

// restoreParents fills interior PARENT links from nesting; they are
// stripped on the wire.
func restoreParents(n *xmltree.Node) {
	for _, k := range n.Kids {
		if k.Parent == "" {
			k.Parent = n.ID
		}
		restoreParents(k)
	}
}
