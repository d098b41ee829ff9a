package xmltree

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// rawClaim is a RawHandler claiming every element named in want, recording
// what it was handed and every ordinary event it still saw.
type rawClaim struct {
	want   map[string]bool
	events []string
	raws   []string
	cur    bytes.Buffer
	sink   io.Writer // overrides cur when set
}

func (r *rawClaim) StartElement(name string, attrs []Attr) error {
	r.events = append(r.events, "<"+name)
	return nil
}
func (r *rawClaim) Text(data string) error { r.events = append(r.events, data); return nil }
func (r *rawClaim) EndElement(name string) error {
	r.events = append(r.events, "/"+name)
	return nil
}
func (r *rawClaim) StartRaw(name string) io.Writer {
	if !r.want[name] {
		return nil
	}
	if r.sink != nil {
		return r.sink
	}
	r.cur.Reset()
	return &r.cur
}
func (r *rawClaim) EndRaw(name string) error {
	r.raws = append(r.raws, r.cur.String())
	return nil
}

// TestRawElementVerbatim pins the raw hook: a claimed element arrives as
// the exact input bytes — nested same-name elements, '>' and '<' inside
// quoted values, comments, CDATA and processing instructions hiding tags,
// self-closing forms — no event fires for it, and its siblings scan as
// before.
func TestRawElementVerbatim(t *testing.T) {
	chunks := []string{
		`<c seq="0"><c><c/></c>text</c>`,
		`<c a='>' b="</c>"/>`,
		`<c  edge = "x"><!-- </c> --><![CDATA[</c>]]><?pi </c>?>&bogus;` + "\x01" + `</c >`,
		`<ns:c/>`,
		`<c>` + strings.Repeat("<r>pad</r>", 10_000) + `</c>`, // spans reader buffers
	}
	doc := `<root x="1"><keep>k</keep>` + strings.Join(chunks, " ") + `<keep/></root>`
	h := &rawClaim{want: map[string]bool{"c": true}}
	if err := ScanAttrs(strings.NewReader(doc), h); err != nil {
		t.Fatal(err)
	}
	if len(h.raws) != len(chunks) {
		t.Fatalf("claimed %d elements, want %d", len(h.raws), len(chunks))
	}
	for i, want := range chunks {
		if h.raws[i] != want {
			t.Errorf("chunk %d changed in capture:\n%q\nwant\n%q", i, h.raws[i], want)
		}
	}
	if got, want := strings.Join(h.events, " "), "<root <keep k /keep <keep /keep /root"; got != want {
		t.Errorf("events around claimed elements = %q, want %q", got, want)
	}
}

// TestRawElementFailures: a claimed element the input tears is an
// unterminated document, and a sink's write error aborts the scan as
// itself.
func TestRawElementFailures(t *testing.T) {
	for _, doc := range []string{`<r><c a="`, `<r><c>`, `<r><c><d></d>`, `<r><c><!-- `, `<r><c><`, `<r><c`} {
		h := &rawClaim{want: map[string]bool{"c": true}}
		if err := ScanAttrs(strings.NewReader(doc), h); !errors.Is(err, errUnterminated) {
			t.Errorf("%q: err = %v, want unterminated", doc, err)
		}
		if len(h.raws) != 0 {
			t.Errorf("%q: torn element completed: %q", doc, h.raws)
		}
	}
	full := errors.New("sink full")
	h := &rawClaim{want: map[string]bool{"c": true}, sink: failWriter{full}}
	if err := ScanAttrs(strings.NewReader(`<r><c>x</c></r>`), h); !errors.Is(err, full) {
		t.Errorf("err = %v, want the sink's", err)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

// depthClaim claims every child of the root raw and counts the start
// events it is still given.
type depthClaim struct {
	claim  bool
	depth  int
	starts int
	cur    bytes.Buffer
	raws   []string
}

func (d *depthClaim) StartElement(string, []Attr) error { d.depth++; d.starts++; return nil }
func (d *depthClaim) Text(string) error                 { return nil }
func (d *depthClaim) EndElement(string) error           { d.depth--; return nil }
func (d *depthClaim) StartRaw(string) io.Writer {
	if !d.claim || d.depth != 1 {
		return nil
	}
	d.cur.Reset()
	return &d.cur
}
func (d *depthClaim) EndRaw(string) error { d.raws = append(d.raws, d.cur.String()); return nil }

// checkRawAgreesWithScan holds the raw path to the tokenizer: in any
// document the scanner accepts, the root's children captured raw must each
// scan on their own, and together account for exactly the elements the
// plain scan saw.
func checkRawAgreesWithScan(t *testing.T, doc string) {
	plain := &depthClaim{}
	if ScanAttrs(strings.NewReader(doc), plain) != nil {
		// Rejected input only has to be survived.
		_ = ScanAttrs(strings.NewReader(doc), &depthClaim{claim: true})
		return
	}
	raw := &depthClaim{claim: true}
	if err := ScanAttrs(strings.NewReader(doc), raw); err != nil {
		t.Fatalf("raw capture failed on a document the scanner accepts: %v\n%q", err, doc)
	}
	total := raw.starts
	for _, elem := range raw.raws {
		sub := &depthClaim{}
		if err := ScanAttrs(strings.NewReader(elem), sub); err != nil {
			t.Fatalf("captured element does not scan: %v\n%q\nfrom %q", err, elem, doc)
		}
		total += sub.starts
	}
	if total != plain.starts {
		t.Fatalf("raw capture accounts for %d elements, the scan saw %d\n%q", total, plain.starts, doc)
	}
}

func TestRawAgreesWithScan(t *testing.T) {
	for _, doc := range []string{
		`<a><b>x</b><b y='>'><b/></b></a>`,
		`<a><b><!-- <b> --></b><?p <b>?><c><![CDATA[<c>]]></c></a>`,
		`<a><!DOCTYPE x [ <!ELEMENT a> ]><b/></a>`,
		`<a><b><!"></b></a>`, // a declaration's quotes do not hide its '>'
	} {
		checkRawAgreesWithScan(t, doc)
	}
}
