package publish

import (
	"bytes"
	"strings"
	"testing"

	"xdx/internal/core"
	"xdx/internal/relstore"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

func loadedStore(t *testing.T, layout *core.Fragmentation, doc *xmltree.Node) *relstore.Store {
	t.Helper()
	st, err := relstore.NewStore(layout)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LoadDocument(doc); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPublishReproducesDocument(t *testing.T) {
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 25_000, Seed: 8})
	for _, layout := range []*core.Fragmentation{core.MostFragmented(sch), core.LeastFragmented(sch)} {
		st := loadedStore(t, layout, doc)
		var buf bytes.Buffer
		res, err := Publish(st, &buf)
		if err != nil {
			t.Fatalf("%s: %v", layout.Name, err)
		}
		if res.Bytes != int64(buf.Len()) {
			t.Errorf("%s: reported %d bytes, wrote %d", layout.Name, res.Bytes, buf.Len())
		}
		if res.QueryTime <= 0 {
			t.Errorf("%s: no query time measured", layout.Name)
		}
		back, err := xmltree.Parse(&buf)
		if err != nil {
			t.Fatalf("%s: published document does not parse: %v", layout.Name, err)
		}
		if !xmltree.EqualShape(doc, back) {
			t.Errorf("%s: published document differs from the stored one", layout.Name)
		}
	}
}

func TestPublishFromMFCostsMoreThanLF(t *testing.T) {
	// Table 2's publish asymmetry, by its cause: the MF source runs many
	// more Combines and joins many more child rows than the LF source to
	// publish the same document. These counts repeat exactly; the time
	// ratio they cause is measured by xdxbench (EXPERIMENTS.md, Table 2).
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 200_000, Seed: 2})
	var mfDoc, lfDoc bytes.Buffer
	mf, err := Publish(loadedStore(t, core.MostFragmented(sch), doc), &mfDoc)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := Publish(loadedStore(t, core.LeastFragmented(sch), doc), &lfDoc)
	if err != nil {
		t.Fatal(err)
	}
	if mfDoc.String() != lfDoc.String() {
		t.Fatal("MF and LF published different documents")
	}
	if mf.Combines <= lf.Combines || mf.JoinedRows <= lf.JoinedRows {
		t.Errorf("publish from MF ran %d Combines joining %d rows; from LF %d joining %d — MF should do more of both",
			mf.Combines, mf.JoinedRows, lf.Combines, lf.JoinedRows)
	}
	t.Logf("MF: %d Combines, %d rows joined; LF: %d Combines, %d rows joined", mf.Combines, mf.JoinedRows, lf.Combines, lf.JoinedRows)
}

func TestPublishEmptyStore(t *testing.T) {
	sch := xmark.Schema()
	st, err := relstore.NewStore(core.LeastFragmented(sch))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Publish(st, &buf); err == nil {
		t.Error("publishing an empty store should fail (no document root)")
	}
}

func TestPublishedDocumentHasNoIDs(t *testing.T) {
	// publish&map ships the plain tagged document; instance keys stay
	// internal.
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 10_000, Seed: 6})
	st := loadedStore(t, core.LeastFragmented(sch), doc)
	var buf bytes.Buffer
	if _, err := Publish(st, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `ID="`) {
		t.Error("published document must not carry instance keys")
	}
}
