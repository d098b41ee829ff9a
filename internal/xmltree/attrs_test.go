package xmltree

import (
	"strings"
	"testing"
)

func TestAttrsRoundTrip(t *testing.T) {
	n := &Node{Name: "port"}
	n.SetAttr("name", "p1")
	n.SetAttr("location", `http://x?a=1&b="2"`)
	out := Marshal(n, WriteOptions{})
	if !strings.Contains(out, `name="p1"`) || !strings.Contains(out, "&amp;") {
		t.Errorf("attr serialization wrong: %s", out)
	}
	back, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Attr("location"); !ok || v != `http://x?a=1&b="2"` {
		t.Errorf("attr lost: %q", v)
	}
	if _, ok := back.Attr("missing"); ok {
		t.Error("missing attr reported present")
	}
}

func TestSetAttrReplaces(t *testing.T) {
	n := &Node{Name: "a"}
	n.SetAttr("k", "1")
	n.SetAttr("k", "2")
	if len(n.Attrs) != 1 {
		t.Fatalf("attrs = %v", n.Attrs)
	}
	if v, _ := n.Attr("k"); v != "2" {
		t.Errorf("k = %q", v)
	}
}

func TestCloneCopiesAttrs(t *testing.T) {
	n := &Node{Name: "a"}
	n.SetAttr("k", "1")
	c := n.Clone()
	c.SetAttr("k", "2")
	if v, _ := n.Attr("k"); v != "1" {
		t.Error("clone shares attrs")
	}
}

func TestEmitAllIDsSelective(t *testing.T) {
	n := &Node{Name: "a", ID: "1", Kids: []*Node{
		{Name: "b", ID: "2", Parent: "1"},
		{Name: "c"}, // no ids
	}}
	out := Marshal(n, WriteOptions{EmitAllIDs: true})
	if !strings.Contains(out, `<a ID="1">`) {
		t.Errorf("root ID missing: %s", out)
	}
	if !strings.Contains(out, `<b ID="2" PARENT="1"/>`) {
		t.Errorf("interior ids missing: %s", out)
	}
	if strings.Contains(out, `<c ID`) || strings.Contains(out, `<c PARENT`) {
		t.Errorf("empty ids emitted: %s", out)
	}
}

func TestIndentedOutput(t *testing.T) {
	n := &Node{Name: "a", Kids: []*Node{{Name: "b", Text: "x"}, {Name: "c"}}}
	out := Marshal(n, WriteOptions{Indent: true})
	if !strings.Contains(out, "\n  <b>") {
		t.Errorf("not indented:\n%s", out)
	}
	back, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualShape(n, back) {
		t.Error("indented round trip changed shape")
	}
}

func TestSizeWithMatchesMarshal(t *testing.T) {
	n := &Node{Name: "a", ID: "1", Kids: []*Node{{Name: "b", ID: "2", Parent: "1", Text: "t"}}}
	for _, opts := range []WriteOptions{{}, {EmitIDs: true}, {EmitAllIDs: true}, {Indent: true}} {
		if got, want := SizeWith(n, opts), int64(len(Marshal(n, opts))); got != want {
			t.Errorf("opts %+v: SizeWith %d != len(Marshal) %d", opts, got, want)
		}
	}
}

func TestParseIgnoresCommentsAndPIs(t *testing.T) {
	doc := `<?xml version="1.0"?><!-- top --><a><!-- inner --><b><![CDATA[raw <cdata> & text]]></b></a><!-- tail -->`
	n, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "a" || len(n.Kids) != 1 {
		t.Fatalf("structure wrong: %s", Marshal(n, WriteOptions{}))
	}
	if got := n.Kids[0].Text; got != "raw <cdata> & text" {
		t.Errorf("CDATA text = %q", got)
	}
	// Reserialization escapes the CDATA content safely.
	out := Marshal(n, WriteOptions{})
	back, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if back.Kids[0].Text != n.Kids[0].Text {
		t.Errorf("CDATA round trip changed text: %q", back.Kids[0].Text)
	}
}

func TestScanIgnoresCommentsAndPIs(t *testing.T) {
	doc := `<?pi data?><a><!-- c --><b>x</b></a>`
	events := 0
	err := ScanAttrs(strings.NewReader(doc), FuncHandler{
		Start: func(string, []Attr) error { events++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if events != 2 {
		t.Errorf("start events = %d, want 2", events)
	}
}

func TestEqualDistinguishesIDs(t *testing.T) {
	a := &Node{Name: "x", ID: "1"}
	b := &Node{Name: "x", ID: "2"}
	if Equal(a, b) {
		t.Error("Equal must compare IDs")
	}
	if !EqualShape(a, b) {
		t.Error("EqualShape must ignore IDs")
	}
	if Equal(a, nil) || !Equal(nil, nil) {
		t.Error("nil handling wrong")
	}
}
