package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// retainer keeps every attribute it is handed, as a handler that builds
// records from a scan does.
type retainer struct{ attrs []Attr }

func (r *retainer) StartElement(_ string, attrs []Attr) error {
	r.attrs = append(r.attrs, attrs...)
	return nil
}
func (r *retainer) Text(string) error       { return nil }
func (r *retainer) EndElement(string) error { return nil }

// slabDoc is a document whose attribute values total well over one 16 KiB
// slab block, with one value past the slab's 4 KiB per-value limit, one
// that needs entity decoding and two namespace declarations the scanner
// drops. It returns the attributes a scan must deliver, in order.
func slabDoc(tag string) (string, []Attr) {
	var doc strings.Builder
	var want []Attr
	doc.WriteString(`<r xmlns="urn:r" xmlns:p="urn:p">`)
	for i := 0; i < 800; i++ {
		v := fmt.Sprintf("%s-%d-%s", tag, i, strings.Repeat("v", i%40))
		fmt.Fprintf(&doc, `<e ID="%s" p:k="%d"/>`, v, i)
		want = append(want, Attr{Name: "ID", Value: v}, Attr{Name: "k", Value: fmt.Sprint(i)})
		if i == 300 {
			big := tag + strings.Repeat("B", 5000)
			fmt.Fprintf(&doc, `<big v="%s"/>`, big)
			want = append(want, Attr{Name: "v", Value: big})
		}
		if i == 500 {
			doc.WriteString(`<ent v="` + tag + `&amp;&lt;&#x41;&#66;&quot;"/>`)
			want = append(want, Attr{Name: "v", Value: tag + `&<AB"`})
		}
	}
	doc.WriteString(`</r>`)
	return doc.String(), want
}

// TestScanAttrValuesOutliveTheScan: attribute values come from the scan's
// string slab, and a handler may keep them — every retained value reads
// back unchanged after the scan returns and after another scan has run,
// whether it sat in a slab block, got a heap string of its own, or was
// entity-decoded; namespace declarations never reach the handler.
func TestScanAttrValuesOutliveTheScan(t *testing.T) {
	check := func(when string, got, want []Attr) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d attributes retained, want %d", when, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: attribute %d = %q=%.40q, want %q=%.40q", when, i, got[i].Name, got[i].Value, want[i].Name, want[i].Value)
			}
		}
	}
	docA, wantA := slabDoc("a")
	docB, wantB := slabDoc("b")
	var a, b retainer
	if err := ScanAttrs(strings.NewReader(docA), &a); err != nil {
		t.Fatal(err)
	}
	check("after the scan", a.attrs, wantA)
	if err := ScanAttrs(strings.NewReader(docB), &b); err != nil {
		t.Fatal(err)
	}
	check("after a second scan", a.attrs, wantA)
	check("the second scan", b.attrs, wantB)
}

// nopAttrs is an AttrHandler that keeps nothing.
type nopAttrs struct{}

func (nopAttrs) StartElement(string, []Attr) error { return nil }
func (nopAttrs) Text(string) error                 { return nil }
func (nopAttrs) EndElement(string) error           { return nil }

// TestScanAttrsAllocatesPerSlab: a scan's allocations grow with the string
// slab's blocks, not with the elements whose values fill them — 64 times
// the IDs cost a few more blocks, not 4,032 more strings.
func TestScanAttrsAllocatesPerSlab(t *testing.T) {
	allocs := func(n int) float64 {
		var doc bytes.Buffer
		doc.WriteString("<r>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&doc, `<e ID="1.%d.%d"/>`, i/7, i)
		}
		doc.WriteString("</r>")
		return testing.AllocsPerRun(5, func() {
			if err := ScanAttrs(bytes.NewReader(doc.Bytes()), nopAttrs{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(4096)
	if large-small > 12 {
		t.Errorf("64 elements: %.0f allocations, 4096: %.0f; want the difference to be a few slab blocks", small, large)
	}
}

// endless reads as prefix followed by c repeated forever, counting the
// bytes it hands out.
type endless struct {
	prefix string
	c      byte
	n      int
}

func (e *endless) Read(p []byte) (int, error) {
	k := copy(p, e.prefix)
	e.prefix = e.prefix[k:]
	for i := k; i < len(p); i++ {
		p[i] = e.c
	}
	e.n += len(p)
	return len(p), nil
}

// TestScanRefusesOversizedToken: a name, attribute value, text run or
// CDATA section that never ends is refused with ErrTokenTooLarge once it
// passes MaxTokenBytes, after reading at most that much plus one read
// buffer — not buffered until memory runs out.
func TestScanRefusesOversizedToken(t *testing.T) {
	for _, c := range []struct {
		what, prefix string
		c            byte
	}{
		{"name", "<r><", 'n'},
		{"attribute value", `<r><e v="`, 'v'},
		{"text run", "<r>", 't'},
		{"CDATA section", "<r><![CDATA[", 'c'},
	} {
		in := &endless{prefix: c.prefix, c: c.c}
		err := ScanAttrs(in, nopAttrs{})
		if !errors.Is(err, ErrTokenTooLarge) {
			t.Errorf("endless %s: err = %v, want ErrTokenTooLarge", c.what, err)
		}
		if limit := MaxTokenBytes + 64<<10; in.n > limit {
			t.Errorf("endless %s: read %d bytes before refusing, want at most %d", c.what, in.n, limit)
		}
	}
}

// TestScanRefusesMismatchedEndTag: a close tag must repeat its open tag's
// name, prefix included, and Parse refuses with the scanner's own error.
func TestScanRefusesMismatchedEndTag(t *testing.T) {
	for _, doc := range []string{`<a><b></a></b>`, `<a><b></b></c>`, `<p:a></q:a>`, `<p:a></a>`} {
		serr := ScanAttrs(strings.NewReader(doc), FuncHandler{})
		if serr == nil {
			t.Errorf("ScanAttrs(%q) accepted it", doc)
			continue
		}
		if _, perr := Parse(strings.NewReader(doc)); perr == nil || perr.Error() != serr.Error() {
			t.Errorf("Parse(%q) = %v, want the scanner's %v", doc, perr, serr)
		}
	}
}

// TestScanReusesItsReadBuffer: the scanner's 32 KiB read buffer comes from
// a pool, so scanning a SOAP envelope of about 500 bytes allocates a few
// KiB, not a fresh buffer each time.
func TestScanReusesItsReadBuffer(t *testing.T) {
	if raceOn {
		t.Skip("sync.Pool drops items at random under -race")
	}
	env := `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/" codec="bin"><soap:Body>` +
		`<ExecuteSourceResponse><shipment><instance edge="0:Customer" frag="Customer" seq="0" format="bin">` +
		strings.Repeat("QUJDREVGR0hJSktMTU5PUFFSU1RVVldYWVo=", 7) +
		`</instance></shipment><timing queryMillis="1.250" payloadBytes="252"/></ExecuteSourceResponse>` +
		`</soap:Body></soap:Envelope>`
	scan := func() {
		if err := ScanAttrs(strings.NewReader(env), nopAttrs{}); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 8<<10 {
		t.Errorf("scanning a %d-byte envelope allocates %d bytes, want under 8 KiB", len(env), per)
	}
}

// failAfter hands out its bytes together with err in one read, then reads
// as the end of input.
type failAfter struct {
	data string
	err  error
}

func (f *failAfter) Read(p []byte) (int, error) {
	if f.data == "" {
		return 0, io.EOF
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, f.err
}

// TestScanKeepsAReadError: an error a read returns along with its last
// bytes reaches the caller once those bytes are scanned, even when the
// reader reads as the end of input after it.
func TestScanKeepsAReadError(t *testing.T) {
	boom := errors.New("boom")
	err := ScanAttrs(&failAfter{data: "<r>abc", err: boom}, nopAttrs{})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the read error %v", err, boom)
	}
}

// TestScanDropsALargeVocabulary: a scan that interned more name bytes than
// a pooled scanner may keep leaves none of them to the pool — a request
// with a 1 MiB element name must not pin that name for every later scan —
// while a small vocabulary stays interned for the next scan.
func TestScanDropsALargeVocabulary(t *testing.T) {
	s := scanners.New().(*attrScanner)
	if err := s.scan(strings.NewReader(`<r a="1"><b/></r>`), nopAttrs{}); err != nil {
		t.Fatal(err)
	}
	s.reset()
	if len(s.names) != 3 {
		t.Errorf("after a small scan the intern table holds %d names, want 3", len(s.names))
	}

	long := strings.Repeat("n", 1<<20)
	if err := s.scan(strings.NewReader("<r><"+long+"/></r>"), nopAttrs{}); err != nil {
		t.Fatal(err)
	}
	s.reset()
	if _, ok := s.names[long]; ok {
		t.Error("the pooled intern table still holds the 1 MiB name")
	}
	for _, slot := range s.cache {
		if slot.q == long {
			t.Fatal("the pooled name cache still holds the 1 MiB name")
		}
	}
}
