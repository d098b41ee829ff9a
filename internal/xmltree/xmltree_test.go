package xmltree

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Node {
	return &Node{
		Name: "Customer", ID: "c1", Parent: "",
		Kids: []*Node{
			{Name: "CustName", ID: "n1", Parent: "c1", Text: "Ann & Bob <Smith>"},
			{Name: "Order", ID: "o1", Parent: "c1", Kids: []*Node{
				{Name: "Service", ID: "s1", Parent: "o1", Kids: []*Node{
					{Name: "ServiceName", ID: "sn1", Parent: "s1", Text: "local"},
				}},
			}},
			{Name: "Order", ID: "o2", Parent: "c1"},
		},
	}
}

func TestMarshalDense(t *testing.T) {
	got := Marshal(sample(), WriteOptions{})
	want := `<Customer><CustName>Ann &amp; Bob &lt;Smith&gt;</CustName><Order><Service><ServiceName>local</ServiceName></Service></Order><Order/></Customer>`
	if got != want {
		t.Errorf("Marshal =\n%s\nwant\n%s", got, want)
	}
}

func TestMarshalEmitIDs(t *testing.T) {
	got := Marshal(sample(), WriteOptions{EmitIDs: true})
	if !strings.HasPrefix(got, `<Customer ID="c1" PARENT="">`) {
		t.Errorf("root should carry ID/PARENT: %s", got)
	}
	if strings.Contains(got, `<Order ID=`) {
		t.Errorf("interior nodes must not carry IDs: %s", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	n := sample()
	doc := Marshal(n, WriteOptions{EmitIDs: true})
	back, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualShape(n, back) {
		t.Errorf("round trip changed shape:\n%s\nvs\n%s", doc, Marshal(back, WriteOptions{}))
	}
	if back.ID != "c1" || back.Parent != "" {
		t.Errorf("root ID/PARENT not restored: %q %q", back.ID, back.Parent)
	}
}

func TestParseIndented(t *testing.T) {
	doc := Marshal(sample(), WriteOptions{Indent: true})
	back, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualShape(sample(), back) {
		t.Errorf("indented round trip changed shape")
	}
}

func TestParseErrors(t *testing.T) {
	for _, doc := range []string{"", "<a><b></a>", "<a></a><b></b>", "<a>"} {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("Parse(%q): want error", doc)
		}
	}
}

func TestSerializedSizeMatchesWrite(t *testing.T) {
	n := sample()
	if got, want := SerializedSize(n, false), int64(len(Marshal(n, WriteOptions{}))); got != want {
		t.Errorf("SerializedSize = %d, want %d", got, want)
	}
	if got, want := SerializedSize(n, true), int64(len(Marshal(n, WriteOptions{EmitIDs: true}))); got != want {
		t.Errorf("SerializedSize(ids) = %d, want %d", got, want)
	}
}

// Write's buffered writer comes from a pool: serializing into a sink that
// already has room allocates nothing per call.
func TestWriteDoesNotAllocateItsBuffer(t *testing.T) {
	n := sample()
	var sink bytes.Buffer
	allocs := testing.AllocsPerRun(100, func() {
		sink.Reset()
		if err := Write(&sink, n, WriteOptions{EmitAllIDs: true}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Errorf("Write allocates %.0f times per call, want 0", allocs)
	}
	if got, want := sink.String(), Marshal(n, WriteOptions{EmitAllIDs: true}); got != want {
		t.Errorf("Write produced %q, Marshal %q", got, want)
	}
}

func TestCountCloneFind(t *testing.T) {
	n := sample()
	if n.Count() != 6 {
		t.Errorf("Count = %d, want 6", n.Count())
	}
	c := n.Clone()
	if !Equal(n, c) {
		t.Errorf("Clone not equal")
	}
	c.Kids[0].Text = "changed"
	if Equal(n, c) {
		t.Errorf("Clone shares storage")
	}
	if n.Find("ServiceName") == nil || n.Find("zzz") != nil {
		t.Errorf("Find broken")
	}
}

func TestScanEvents(t *testing.T) {
	doc := `<a ID="1" PARENT=""><b>hi</b><c/></a>`
	var log []string
	h := FuncHandler{
		Start: func(name string, attrs []Attr) error {
			id := ""
			for _, a := range attrs {
				if a.Name == "ID" {
					id = a.Value
				}
			}
			log = append(log, "S:"+name+":"+id)
			return nil
		},
		Data: func(text string) error { log = append(log, "T:"+text); return nil },
		End:  func(name string) error { log = append(log, "E:"+name); return nil },
	}
	if err := ScanAttrs(strings.NewReader(doc), h); err != nil {
		t.Fatal(err)
	}
	want := []string{"S:a:1", "S:b:", "T:hi", "E:b", "S:c:", "E:c", "E:a"}
	if strings.Join(log, " ") != strings.Join(want, " ") {
		t.Errorf("events = %v, want %v", log, want)
	}
}

func TestScanUnterminated(t *testing.T) {
	if err := ScanAttrs(strings.NewReader("<a><b></b>"), FuncHandler{}); err == nil {
		t.Error("want error for unterminated document")
	}
}

// randTree builds a random instance tree for property tests.
func randTree(r *rand.Rand, depth int) *Node {
	names := []string{"alpha", "beta", "gamma", "delta"}
	n := &Node{Name: names[r.Intn(len(names))], ID: "x", Text: ""}
	if depth > 0 && r.Intn(3) > 0 {
		for i := 0; i < r.Intn(4); i++ {
			n.Kids = append(n.Kids, randTree(r, depth-1))
		}
	}
	if len(n.Kids) == 0 {
		// Leaf text with characters that need escaping.
		n.Text = []string{"", "v<1>", `a&"b`, "plain"}[r.Intn(4)]
	}
	return n
}

// Property: serialize→parse is shape-preserving for arbitrary trees.
func TestRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randTree(r, 4)
		back, err := Parse(strings.NewReader(Marshal(n, WriteOptions{})))
		if err != nil {
			return false
		}
		return EqualShape(n, back)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Count is invariant under Clone and serialization round trip.
func TestCountInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randTree(r, 3)
		if n.Clone().Count() != n.Count() {
			return false
		}
		back, err := Parse(strings.NewReader(Marshal(n, WriteOptions{})))
		return err == nil && back.Count() == n.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
