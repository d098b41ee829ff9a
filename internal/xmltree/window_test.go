package xmltree

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
)

// eventLog records a scan's events, text taken as bytes the way the
// shipment decoder takes it, so the window's zero-copy path is the one
// under test.
type eventLog struct{ events []string }

func (l *eventLog) StartElement(name string, attrs []Attr) error {
	ev := "<" + name
	for _, a := range attrs {
		ev += " " + a.Name + "=[" + a.Value + "]"
	}
	l.events = append(l.events, ev+">")
	return nil
}
func (l *eventLog) Text(data string) error { return l.TextBytes([]byte(data)) }
func (l *eventLog) TextBytes(data []byte) error {
	l.events = append(l.events, "["+string(data)+"]")
	return nil
}
func (l *eventLog) EndElement(name string) error {
	l.events = append(l.events, "</"+name+">")
	return nil
}

// scanLog scans r and returns its events and error as one comparable
// string.
func scanLog(r io.Reader) string {
	var l eventLog
	err := ScanAttrs(r, &l)
	return fmt.Sprintf("%s\nerror: %v", strings.Join(l.events, "\n"), err)
}

// windowSeeds are documents whose constructs a window edge can cut where
// it hurts most, past the fuzz corpora's seeds.
var windowSeeds = []string{
	`<r><c a="x>y/z" b='/>' c="</r>"/></r>`,
	`<p:r xmlns:p="urn:p" xmlns="urn:d" p:k="v" xmlns:q='urn:q'><q:c ID="1"/></p:r>`,
	`<p:r><p:c>t</p:c><c>u</c></p:r>`,
	`<r>a&amp;b&#x41;c&lt;&#66;&quot;d&gt;</r>`,
	`<r a="&amp;&#x41;&lt;">&apos;</r>`,
	"<r a=\"x\r\ny\">a\r\nb\rc\r\n\r\n</r>",
	"<r><![CDATA[a]]]b]]c]]]]></r><!-- ]] -->",
	"<r><![CDATA[ \r\n]] ]]]></r>",
	`<!DOCTYPE r [<!ENTITY e "]>"><!-- > --><!ELEMENT r ANY>]><r>t</r>`,
	`<?xml version="1.0"?><!-- c --><r><?pi x?>t<!-- -- --></r>`,
	"<r>\t x  y \n</r>",
	"<r>caf\u00e9 \u00a0</r>",
	`<r></p:r>`, `<r><c></r>`, `<r a=b/>`, `<r a/>`, `<r =""/>`, "<r>\x01</r>", `<r>&bogus;</r>`,
}

// windowDocs is every document the window-boundary test reads: the fuzz
// corpora, windowSeeds, and tokens longer than the window itself.
func windowDocs() []string {
	docs := append([]string(nil), parseSeeds...)
	docs = append(docs,
		`<a><b>x</b></a>`, `<a><b></a></b>`, `<?xml version="1.0"?><r/>`,
		`<r><c a='>'><!-- </c> --><c/><![CDATA[</c>]]></c><c/></r>`,
		`<r><!DOCTYPE x [<!ENTITY e "]>"><!-- > -->]><c/></r>`,
		soapFaultSeed, wsdlSeed,
		"<a>&#000000000000000000000000000000000065;</a>",
		"<a><![CDATA[x\r\ny\rz]]></a>",
		`<a><!x "y>z" <!-- > -->></a>`,
		`<!DOCTYPE a [<!ENTITY e "]>">]><a:>t</a:>`,
		`<a :ID="1"><b p:PARENT="2"/></a>`,
		`<a>&#xD800;</a>`,
	)
	docs = append(docs, windowSeeds...)
	long := strings.Repeat("0123456789abcde ", windowBytes/16+64)
	docs = append(docs,
		`<r a="`+long+`">`+long+`<`+long[:5000]+`/></r>`,
		`<r><![CDATA[`+long+`]]>&amp;`+long+`</r>`,
		`<r>`+long+`&#x41;`+long+"\r\n"+`</r>`,
	)
	return docs
}

// A document reads the same however its bytes arrive: one at a time, in
// halves, with the end of input on its last bytes, cut at every offset, or
// placed so that every one of its bytes in turn sits on the edge of the
// first window — the events and the error equal those of one whole-buffer
// read.
func TestScanWindowBoundaries(t *testing.T) {
	for _, doc := range windowDocs() {
		want := scanLog(strings.NewReader(doc))
		check := func(how string, r io.Reader) {
			t.Helper()
			if got := scanLog(r); got != want {
				t.Fatalf("%.60q read %s:\n%s\nwant, read whole:\n%s", doc, how, got, want)
			}
		}
		check("a byte at a time", iotest.OneByteReader(strings.NewReader(doc)))
		check("in halves", iotest.HalfReader(strings.NewReader(doc)))
		check("with its last bytes and EOF together", iotest.DataErrReader(strings.NewReader(doc)))
		step := max(1, len(doc)/128)
		for cut := 0; cut <= len(doc); cut += step {
			check(fmt.Sprintf("cut at %d", cut), io.MultiReader(strings.NewReader(doc[:cut]), strings.NewReader(doc[cut:])))
		}
		// Leading white space changes no event; its length moves the first
		// window's edge through the document.
		for at := 0; at <= min(len(doc), windowBytes); at += step {
			pad := strings.Repeat(" ", windowBytes-at)
			check(fmt.Sprintf("with the window's edge at byte %d", at), strings.NewReader(pad+doc))
		}
	}
}

// Concurrent scans share only the pool their scanners come from: each
// reads its own document's events while others run, so no window, intern
// table or attribute slice leaks from one scan into another.
func TestScanConcurrentScansShareNothing(t *testing.T) {
	docs := windowDocs()
	want := make([]string, len(docs))
	for i, doc := range docs {
		want[i] = scanLog(strings.NewReader(doc))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range docs {
					i := (i + g*7) % len(docs)
					if got := scanLog(iotest.HalfReader(strings.NewReader(docs[i]))); got != want[i] {
						t.Errorf("%.60q read beside other scans:\n%s\nwant:\n%s", docs[i], got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
