package xdx

// Substrate throughput benchmarks: the parser/serializer (the paper's
// parse-time discussion in §5.3), the shredder, the relational store's
// load/scan/join.

import (
	"bytes"
	"testing"

	"xdx/internal/core"
	"xdx/internal/relstore"
	"xdx/internal/shred"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

func benchDoc(b *testing.B) ([]byte, *xmltree.Node) {
	b.Helper()
	doc := xmark.Generate(xmark.Config{TargetBytes: 500_000, Seed: 1})
	var buf bytes.Buffer
	if err := xmltree.Write(&buf, doc, xmltree.WriteOptions{}); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), doc
}

func BenchmarkSubstrate_Parse(b *testing.B) {
	data, _ := benchDoc(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.Parse(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrate_SAXScan(b *testing.B) {
	data, _ := benchDoc(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := xmltree.ScanAttrs(bytes.NewReader(data), xmltree.FuncHandler{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrate_Serialize(b *testing.B) {
	data, doc := benchDoc(b)
	b.SetBytes(int64(len(data)))
	var sink bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Reset()
		if err := xmltree.Write(&sink, doc, xmltree.WriteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrate_Shred(b *testing.B) {
	data, _ := benchDoc(b)
	layout := core.LeastFragmented(xmark.Schema())
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shred.Shred(bytes.NewReader(data), layout); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrate_StoreLoad(b *testing.B) {
	_, doc := benchDoc(b)
	layout := core.LeastFragmented(xmark.Schema())
	insts, err := core.FromDocument(layout, doc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := relstore.NewStore(layout)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range layout.Fragments {
			if err := st.Load(insts[f.Name]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSubstrate_StoreScan(b *testing.B) {
	_, doc := benchDoc(b)
	layout := core.LeastFragmented(xmark.Schema())
	st, err := relstore.NewStore(layout)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.LoadDocument(doc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range layout.Fragments {
			if _, err := st.ScanFragment(f.Name); err != nil {
				b.Fatal(err)
			}
		}
	}
}
