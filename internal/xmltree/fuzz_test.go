package xmltree

import (
	"strings"
	"testing"
)

// FuzzParse checks the parser never panics and that anything it accepts
// round-trips shape-stably through the serializer.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a><b>text</b><c x="1"/></a>`,
		`<a ID="1" PARENT=""><b ID="1.1">x</b></a>`,
		`<a>&lt;&amp;&gt;</a>`,
		`<a><a><a/></a></a>`,
		`<बहु भाषा="हाँ">पाठ</बहु>`,
		`<a`, `<a></b>`, ``, `plain`, `<a>]]></a>`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		n, err := Parse(strings.NewReader(doc))
		if err != nil {
			return
		}
		out := Marshal(n, WriteOptions{EmitAllIDs: true})
		back, err := Parse(strings.NewReader(out))
		if err != nil {
			t.Fatalf("reserialized document does not parse: %v\ninput: %q\noutput: %q", err, doc, out)
		}
		if !EqualShape(n, back) {
			t.Fatalf("shape changed through round trip\ninput: %q\noutput: %q", doc, out)
		}
	})
}

// FuzzScan checks the SAX scanner never panics and balances events, and
// that its raw-element path finds the same element boundaries.
func FuzzScan(f *testing.F) {
	f.Add(`<a><b>x</b></a>`)
	f.Add(`<a><b></a></b>`)
	f.Add(`<?xml version="1.0"?><r/>`)
	f.Add(`<r><c a='>'><!-- </c> --><c/><![CDATA[</c>]]></c><c/></r>`)
	f.Fuzz(func(t *testing.T, doc string) {
		depth := 0
		h := FuncHandler{
			Start: func(string, string, string) error { depth++; return nil },
			End:   func(string) error { depth--; return nil },
		}
		if err := Scan(strings.NewReader(doc), h); err == nil && depth != 0 {
			t.Fatalf("unbalanced events accepted: depth %d for %q", depth, doc)
		}
		checkRawAgreesWithScan(t, doc)
	})
}
