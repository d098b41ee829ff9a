package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"xdx/internal/schema"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	sch := schema.CustomerInfo()
	sFr := sFragmentation(t, sch)
	tFr := tFragmentation(t, sch)
	ag := New()
	if err := ag.Register("svc", RoleSource, wsdlFor(t, sch, sFr, "http://src"), "http://src"); err != nil {
		t.Fatal(err)
	}
	if err := ag.Register("svc", RoleTarget, wsdlFor(t, sch, tFr, "http://tgt"), "http://tgt"); err != nil {
		t.Fatal(err)
	}
	if err := ag.Register("other", RoleSource, wsdlFor(t, sch, sFr, "http://o"), "http://o"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ag.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadAgency(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(back.Services()); got != 2 {
		t.Fatalf("restored %d services, want 2", got)
	}
	p := back.Party("svc", RoleTarget)
	if p == nil || p.URL != "http://tgt" {
		t.Fatalf("target registration lost: %+v", p)
	}
	if p.Fragmentation.Len() != 4 {
		t.Errorf("fragmentation lost: %d fragments", p.Fragmentation.Len())
	}
	if back.Party("svc", RoleSource).Fragmentation.Len() != 5 {
		t.Errorf("source fragmentation lost")
	}
}

func TestLoadAgencyMissingDir(t *testing.T) {
	a, err := LoadAgency(filepath.Join(t.TempDir(), "nothing-here"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Services()) != 0 {
		t.Error("missing dir should load empty")
	}
}

func TestLoadAgencyCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, indexFile), []byte("<junk/>"), 0o644)
	if _, err := LoadAgency(dir); err == nil {
		t.Error("corrupt index must fail")
	}
	os.WriteFile(filepath.Join(dir, indexFile), []byte("<registry><registration "), 0o644)
	if _, err := LoadAgency(dir); err == nil {
		t.Error("unparsable index must fail")
	}
}

// A single bad registration — dangling WSDL reference, malformed entry,
// unparsable WSDL — is skipped with a warning; the rest of the directory
// still restores.
func TestLoadAgencySkipsBadEntries(t *testing.T) {
	sch := schema.CustomerInfo()
	ag := New()
	if err := ag.Register("good", RoleSource, wsdlFor(t, sch, sFragmentation(t, sch), "http://g"), "http://g"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ag.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Append bad entries around the good one.
	index, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(`<registration service="gone" role="source" url="u" file="missing.wsdl"/>` +
		`<registration service="" role="source" url="u" file=""/>` +
		`<registration service="junk" role="source" url="u" file="junk.wsdl"/>` +
		`</registry>`)
	index = append(index[:len(index)-len("</registry>")], bad...)
	if err := os.WriteFile(filepath.Join(dir, indexFile), index, 0o644); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "junk.wsdl"), []byte("not a wsdl"), 0o644)
	back, err := LoadAgency(dir)
	if err != nil {
		t.Fatalf("bad entries must be skipped, not fatal: %v", err)
	}
	if back.Party("good", RoleSource) == nil {
		t.Error("good registration lost")
	}
	if got := len(back.Services()); got != 1 {
		t.Errorf("restored %d services, want 1", got)
	}
}

// A crashed save must never leave a torn index behind: the index is
// renamed into place, so a leftover temp file is ignored and the previous
// index still loads.
func TestSaveAtomicLeavesLoadableIndex(t *testing.T) {
	sch := schema.CustomerInfo()
	ag := New()
	if err := ag.Register("svc", RoleSource, wsdlFor(t, sch, sFragmentation(t, sch), "http://x"), "http://x"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ag.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-save: a torn temp index next to the real one.
	os.WriteFile(filepath.Join(dir, indexFile+".tmp"), []byte("<registry><regist"), 0o644)
	back, err := LoadAgency(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Party("svc", RoleSource) == nil {
		t.Error("registration lost")
	}
}

func TestAutoSave(t *testing.T) {
	sch := schema.CustomerInfo()
	dir := t.TempDir()
	ag := New()
	ag.SetAutoSave(dir)
	if err := ag.Register("svc", RoleSource, wsdlFor(t, sch, sFragmentation(t, sch), "http://x"), "http://x"); err != nil {
		t.Fatal(err)
	}
	back, err := LoadAgency(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Party("svc", RoleSource) == nil {
		t.Error("autosave did not persist the registration")
	}
}

// Two service names that differ only in bytes outside [A-Za-z0-9.-] must
// persist to two WSDL files: "a/b" and "a_b" once both saved as
// a_b__source.wsdl, and the second registration's WSDL overwrote the first.
func TestSaveKeepsNearNamesApart(t *testing.T) {
	sch := schema.CustomerInfo()
	ag := New()
	if err := ag.Register("a/b", RoleSource, wsdlFor(t, sch, sFragmentation(t, sch), "http://ab"), "http://ab"); err != nil {
		t.Fatal(err)
	}
	if err := ag.Register("a_b", RoleSource, wsdlFor(t, sch, tFragmentation(t, sch), "http://a_b"), "http://a_b"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ag.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadAgency(dir)
	if err != nil {
		t.Fatal(err)
	}
	for service, want := range map[string]int{"a/b": 5, "a_b": 4} {
		p := back.Party(service, RoleSource)
		if p == nil {
			t.Errorf("%s: registration lost", service)
			continue
		}
		if got := p.Fragmentation.Len(); got != want {
			t.Errorf("%s: restored %d fragments, want %d", service, got, want)
		}
	}
}

// A directory saved under the older naming, which mapped every unsafe byte
// to '_', still loads through its index; the next autosave rewrites the
// WSDL under its escaped name and removes the file the index no longer
// names.
func TestAutoSaveReplacesLegacyWSDLFile(t *testing.T) {
	sch := schema.CustomerInfo()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x_y__source.wsdl"), wsdlFor(t, sch, sFragmentation(t, sch), "http://xy"), 0o644); err != nil {
		t.Fatal(err)
	}
	index := `<registry><registration service="x y" role="source" url="http://xy" file="x_y__source.wsdl"/></registry>`
	if err := os.WriteFile(filepath.Join(dir, indexFile), []byte(index), 0o644); err != nil {
		t.Fatal(err)
	}
	ag, err := LoadAgency(dir)
	if err != nil {
		t.Fatal(err)
	}
	ag.SetAutoSave(dir)
	if err := ag.Register("z", RoleSource, wsdlFor(t, sch, tFragmentation(t, sch), "http://z"), "http://z"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "x_y__source.wsdl")); !os.IsNotExist(err) {
		t.Errorf("legacy WSDL file still on disk (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "x_20y__source.wsdl")); err != nil {
		t.Errorf("escaped WSDL file missing: %v", err)
	}
	back, err := LoadAgency(dir)
	if err != nil {
		t.Fatal(err)
	}
	for service, want := range map[string]int{"x y": 5, "z": 4} {
		p := back.Party(service, RoleSource)
		if p == nil {
			t.Errorf("%s: registration lost", service)
			continue
		}
		if got := p.Fragmentation.Len(); got != want {
			t.Errorf("%s: restored %d fragments, want %d", service, got, want)
		}
	}
}

func TestSanitize(t *testing.T) {
	for in, want := range map[string]string{
		"CustomerInfoService": "CustomerInfoService",
		"v1.2-beta":           "v1.2-beta",
		"a/b":                 "a_2Fb",
		"a_b":                 "a_5Fb",
		"a b":                 "a_20b",
		"a_2Fb":               "a_5F2Fb",
		"é":                   "_C3_A9",
	} {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
	// Names that differ must stay apart, service and role together.
	names := []string{"a/b", "a_b", "a b", "a:b", "a__b", "a_", "a", "_", "__", "a_2Fb", "a__source", "é", "e"}
	seen := map[string]string{}
	for _, n := range names {
		for _, role := range []Role{RoleSource, RoleTarget} {
			file := sanitize(n) + "__" + string(role)
			reg := fmt.Sprintf("%q/%s", n, role)
			if prev, dup := seen[file]; dup {
				t.Errorf("%s and %s both save as %s", prev, reg, file)
			}
			seen[file] = reg
		}
	}
}
