package wire

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"xdx/internal/bufpool"
	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// This file implements the sorted-feed codec: the tag-free tuple format of
// the paper's references [5, 6] in which fragments are shipped between
// systems. A feed row holds, for one record, the record's PARENT key
// followed by — per member element of the fragment in document order — the
// element's key and, for leaves, its text. Field values are escaped so the
// format round-trips arbitrary text.
//
// Feeds require both ends to know the fragment's structure (which they do:
// it is part of the registered fragmentation), which is exactly why feeds
// are leaner than tagged XML.

// WriteFeed streams an instance as feed rows. The fragment must be flat
// (no internally repeated or multi-parent element), which holds for every
// store-layout fragment; absent optional elements are materialized as
// empty fields — the NULLs the paper notes inlined feeds carry.
func WriteFeed(w io.Writer, in *core.Instance, sch *schema.Schema) error {
	bw := bufpool.Writer(w)
	defer bufpool.PutWriter(bw)
	if err := writeFeedRecords(bw, in, sch); err != nil {
		return err
	}
	return bw.Flush()
}

// writeFeedRecords emits the feed rows of an instance into an existing
// buffered writer without flushing, so the streaming shipment encoder can
// interleave feed chunks with its own framing.
func writeFeedRecords(bw *bufio.Writer, in *core.Instance, sch *schema.Schema) error {
	if err := checkFlat(sch, in.Frag); err != nil {
		return err
	}
	shape := feedShape(sch, in.Frag)
	for _, rec := range in.Records {
		if rec.Name != in.Frag.Root {
			return fmt.Errorf("wire: feed: record root %q does not match fragment root %q", rec.Name, in.Frag.Root)
		}
		writeField(bw, rec.Parent)
		if err := writeFeedElem(bw, rec, rec.Name, sch, in.Frag, shape); err != nil {
			return err
		}
		bw.WriteByte('\n')
	}
	return nil
}

func checkFlat(sch *schema.Schema, f *core.Fragment) error {
	for e := range f.Elems {
		if e == f.Root {
			continue
		}
		if sch.ByName(e).Repeated || len(sch.Parents(e)) > 1 {
			return fmt.Errorf("wire: feed: fragment %q repeats %q internally; feeds require flat fragments", f.Name, e)
		}
	}
	return nil
}

// feedShape reports, per element, whether it carries text.
func feedShape(sch *schema.Schema, f *core.Fragment) map[string]bool {
	leaf := make(map[string]bool, len(f.Elems))
	for e := range f.Elems {
		leaf[e] = sch.ByName(e).IsLeaf()
	}
	return leaf
}

// writeFeedElem emits the fields of one element position; n is nil when an
// optional element is absent.
func writeFeedElem(w *bufio.Writer, n *xmltree.Node, elem string, sch *schema.Schema, f *core.Fragment, leaf map[string]bool) error {
	if n == nil {
		writeField(w, "")
		if leaf[elem] {
			writeField(w, "")
		}
	} else {
		id := n.ID
		if id == "" {
			id = "-"
		}
		writeField(w, id)
		if leaf[elem] {
			writeField(w, n.Text)
		}
	}
	for _, c := range sch.AllChildren(elem) {
		if !f.Elems[c] {
			continue
		}
		var kid *xmltree.Node
		if n != nil {
			for _, k := range n.Kids {
				if k.Name == c {
					kid = k
					break
				}
			}
		}
		if err := writeFeedElem(w, kid, c, sch, f, leaf); err != nil {
			return err
		}
	}
	return nil
}

// writeField emits one escaped, pipe-terminated field. Besides the feed's
// own delimiters, XML-special characters are escaped so feed text can be
// embedded verbatim in a SOAP body without growing entity references
// (which would fragment the character data and risk whitespace trimming).
func writeField(w *bufio.Writer, s string) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '|':
			w.WriteString(`\p`)
		case '\n':
			w.WriteString(`\n`)
		case '\\':
			w.WriteString(`\\`)
		case '<':
			w.WriteString(`\l`)
		case '>':
			w.WriteString(`\g`)
		case '&':
			w.WriteString(`\m`)
		case '"':
			w.WriteString(`\q`)
		default:
			w.WriteByte(s[i])
		}
	}
	w.WriteByte('|')
}

// ReadFeed parses feed rows back into an instance of f. Rows must follow
// the structure WriteFeed produces for the same fragment: empty key fields
// mark absent optional elements, "-" marks a present element with an empty
// key.
func ReadFeed(r io.Reader, f *core.Fragment, sch *schema.Schema) (*core.Instance, error) {
	if err := checkFlat(sch, f); err != nil {
		return nil, err
	}
	br := bufio.NewReader(r)
	leaf := feedShape(sch, f)
	in := &core.Instance{Frag: f}
	for {
		line, err := br.ReadString('\n')
		if line == "" && err != nil {
			if err == io.EOF {
				return in, nil
			}
			return nil, err
		}
		line = strings.TrimSuffix(line, "\n")
		if line == "" {
			continue
		}
		fields, ferr := splitFields(line)
		if ferr != nil {
			return nil, ferr
		}
		pos := 0
		next := func() (string, error) {
			if pos >= len(fields) {
				return "", fmt.Errorf("wire: feed: truncated row %q", line)
			}
			v := fields[pos]
			pos++
			return v, nil
		}
		parent, perr := next()
		if perr != nil {
			return nil, perr
		}
		rec, rerr := readFeedNode(f.Root, parent, next, sch, f, leaf)
		if rerr != nil {
			return nil, rerr
		}
		if rec == nil {
			return nil, fmt.Errorf("wire: feed: row %q has no record root", line)
		}
		in.Records = append(in.Records, rec)
		if pos != len(fields) {
			return nil, fmt.Errorf("wire: feed: %d trailing fields in row %q", len(fields)-pos, line)
		}
		if err == io.EOF {
			return in, nil
		}
	}
}

func readFeedNode(elem, parentID string, next func() (string, error), sch *schema.Schema, f *core.Fragment, leaf map[string]bool) (*xmltree.Node, error) {
	id, err := next()
	if err != nil {
		return nil, err
	}
	absent := id == ""
	if id == "-" {
		id = ""
	}
	var n *xmltree.Node
	if !absent {
		n = &xmltree.Node{Name: elem, ID: id, Parent: parentID}
	}
	if leaf[elem] {
		text, err := next()
		if err != nil {
			return nil, err
		}
		if n != nil {
			n.Text = text
		}
	}
	for _, c := range sch.AllChildren(elem) {
		if !f.Elems[c] {
			continue
		}
		k, err := readFeedNode(c, id, next, sch, f, leaf)
		if err != nil {
			return nil, err
		}
		if k != nil && n != nil {
			n.AddKid(k)
		}
	}
	return n, nil
}

// EncodeShipmentCodec serializes cross-edge instances as a shipment tree
// in codec, producing the same wire bytes as the streaming encoder for the
// same shipment. This is the negotiation the paper sketches in §4.1 —
// fragments may be shipped "in XML format" or "in the form of sorted
// feeds": feed falls back to the XML tree encoding for non-flat fragments;
// bin carries any fragment as base64 chunk text.
func EncodeShipmentCodec(out map[string]*core.Instance, sch *schema.Schema, codec Codec) (*xmltree.Node, error) {
	root := &xmltree.Node{Name: "shipment"}
	for _, key := range sortedKeys(out) {
		in := out[key]
		switch {
		case codec.Kind == CodecBin:
			ix := &xmltree.Node{Name: "instance"}
			ix.SetAttr("edge", key)
			ix.SetAttr("frag", in.Frag.Name)
			ix.SetAttr("format", "bin")
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
		case codec.Kind == CodecFeed && checkFlat(sch, in.Frag) == nil:
			var buf strings.Builder
			if err := WriteFeed(&buf, in, sch); err != nil {
				return nil, err
			}
			ix := &xmltree.Node{Name: "instance", Text: buf.String()}
			ix.SetAttr("edge", key)
			ix.SetAttr("frag", in.Frag.Name)
			ix.SetAttr("format", "feed")
			root.AddKid(ix)
		default:
			root.AddKid(encodeInstance(key, in))
		}
	}
	return root, nil
}

// DecodeShipmentAuto rebuilds the inbound instance map, handling the XML
// tree, feed, and bin encodings.
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
		switch format, _ := ix.Attr("format"); format {
		case "feed":
			in, err := ReadFeed(strings.NewReader(ix.Text), f, sch)
			if err != nil {
				return nil, err
			}
			out[key] = in
			continue
		case "bin":
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

func splitFields(line string) ([]string, error) {
	var fields []string
	var b strings.Builder
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if i+1 >= len(line) {
				return nil, fmt.Errorf("wire: feed: dangling escape in %q", line)
			}
			i++
			switch line[i] {
			case 'p':
				b.WriteByte('|')
			case 'n':
				b.WriteByte('\n')
			case '\\':
				b.WriteByte('\\')
			case 'l':
				b.WriteByte('<')
			case 'g':
				b.WriteByte('>')
			case 'm':
				b.WriteByte('&')
			case 'q':
				b.WriteByte('"')
			default:
				return nil, fmt.Errorf("wire: feed: bad escape \\%c", line[i])
			}
		case '|':
			fields = append(fields, b.String())
			b.Reset()
		default:
			b.WriteByte(line[i])
		}
	}
	if b.Len() > 0 {
		return nil, fmt.Errorf("wire: feed: unterminated field in %q", line)
	}
	return fields, nil
}
