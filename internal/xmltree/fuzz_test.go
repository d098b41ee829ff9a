package xmltree

import (
	"strings"
	"testing"
)

// parseSeeds start FuzzParse and FuzzParseMatchesEncodingXML.
var parseSeeds = []string{
	`<a/>`,
	`<a><b>text</b><c x="1"/></a>`,
	`<a ID="1" PARENT=""><b ID="1.1">x</b></a>`,
	`<a>&lt;&amp;&gt;</a>`,
	`<a><a><a/></a></a>`,
	`<बहु भाषा="हाँ">पाठ</बहु>`,
	`<a`, `<a></b>`, ``, `plain`, `<a>]]></a>`,
}

// FuzzParse checks the parser never panics and that anything it accepts
// round-trips shape-stably through the serializer.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
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

// FuzzScan checks the SAX scanner never panics, balances events and closes
// every element it accepts with that element's own name.
func FuzzScan(f *testing.F) {
	f.Add(`<a><b>x</b></a>`)
	f.Add(`<a><b></a></b>`)
	f.Add(`<?xml version="1.0"?><r/>`)
	f.Add(`<r><c a='>'><!-- </c> --><c/><![CDATA[</c>]]></c><c/></r>`)
	f.Add(`<r><!DOCTYPE x [<!ENTITY e "]>"><!-- > -->]><c/></r>`)
	f.Fuzz(func(t *testing.T, doc string) {
		var open []string
		h := FuncHandler{
			Start: func(name string, _ []Attr) error { open = append(open, name); return nil },
			End: func(name string) error {
				if len(open) == 0 || open[len(open)-1] != name {
					t.Fatalf("</%s> delivered with %q open, for %q", name, open, doc)
				}
				open = open[:len(open)-1]
				return nil
			},
		}
		if err := ScanAttrs(strings.NewReader(doc), h); err == nil && len(open) != 0 {
			t.Fatalf("unbalanced events accepted: %q left open for %q", open, doc)
		}
	})
}
