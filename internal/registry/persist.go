package registry

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"xdx/internal/xmltree"
)

// This file persists the agency's registrations to disk so a discovery-
// agency daemon survives restarts: one WSDL document per registration plus
// an index file mapping service/role/URL to it.

const indexFile = "registry.xml"

// SetAutoSave makes the agency persist its registrations into dir after
// every Register call. Pass "" to disable.
func (a *Agency) SetAutoSave(dir string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.autosaveDir = dir
}

// Save writes all registrations to dir (created if needed).
func (a *Agency) Save(dir string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.saveLocked(dir)
}

// saveLocked persists every registration, atomically: each WSDL and the
// index are written to a temp file and renamed into place, so a crash
// mid-save leaves the directory with either the old or the new version of
// every file — never a torn index that fails LoadAgency. WSDL files the new
// index does not name, such as those of a directory saved under an older
// file-naming scheme, are removed afterwards; a crash before the removal
// leaves unreferenced files the loader ignores.
func (a *Agency) saveLocked(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("registry: save: %w", err)
	}
	index := &xmltree.Node{Name: "registry"}
	var services []string
	for s := range a.services {
		services = append(services, s)
	}
	sort.Strings(services)
	wanted := map[string]bool{indexFile: true}
	for _, service := range services {
		for _, role := range []Role{RoleSource, RoleTarget} {
			p := a.services[service][role]
			if p == nil {
				continue
			}
			file := fmt.Sprintf("%s__%s.wsdl", sanitize(service), role)
			wanted[file] = true
			data, err := p.WSDL.Marshal()
			if err != nil {
				return fmt.Errorf("registry: save %s/%s: %w", service, role, err)
			}
			if err := writeFileAtomic(filepath.Join(dir, file), data); err != nil {
				return fmt.Errorf("registry: save: %w", err)
			}
			reg := &xmltree.Node{Name: "registration"}
			reg.SetAttr("service", service)
			reg.SetAttr("role", string(role))
			reg.SetAttr("url", p.URL)
			reg.SetAttr("file", file)
			index.AddKid(reg)
		}
	}
	var b strings.Builder
	if err := xmltree.Write(&b, index, xmltree.WriteOptions{Indent: true}); err != nil {
		return fmt.Errorf("registry: save: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(dir, indexFile), []byte(b.String())); err != nil {
		return fmt.Errorf("registry: save: %w", err)
	}
	// The new index is in place; WSDLs it does not name can go.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("registry: save: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if !wanted[name] && strings.HasSuffix(name, ".wsdl") {
			os.Remove(filepath.Join(dir, name))
		}
	}
	return nil
}

// writeFileAtomic writes data to path via a temp file, synced before it is
// renamed over path, and syncs the directory after, so readers and crash
// recovery — after a power cut too — only ever see a complete file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if err = errors.Join(err, f.Close()); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil { // make the rename durable
		d.Sync() // some filesystems refuse a directory fsync
		d.Close()
	}
	return nil
}

// LoadAgency restores an agency persisted with Save. A missing directory
// or index yields an empty agency. A single malformed entry — missing
// attributes, a WSDL file that is gone or no longer parses — is skipped
// with a logged warning instead of aborting the whole restore, so one bad
// registration never keeps a daemon from coming back up; an unparsable
// index is still an error (the atomic save should make that impossible).
func LoadAgency(dir string) (*Agency, error) {
	a := New()
	f, err := os.Open(filepath.Join(dir, indexFile))
	if os.IsNotExist(err) {
		return a, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: load: %w", err)
	}
	defer f.Close()
	index, err := xmltree.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("registry: load: %w", err)
	}
	if index.Name != "registry" {
		return nil, fmt.Errorf("registry: load: unexpected index root %q", index.Name)
	}
	for _, reg := range index.Kids {
		if reg.Name != "registration" {
			continue
		}
		service, _ := reg.Attr("service")
		roleStr, _ := reg.Attr("role")
		url, _ := reg.Attr("url")
		file, _ := reg.Attr("file")
		if service == "" || file == "" {
			log.Printf("registry: load: skipping malformed registration entry (service=%q file=%q)", service, file)
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, filepath.Base(file)))
		if err != nil {
			log.Printf("registry: load: skipping %s/%s: %v", service, roleStr, err)
			continue
		}
		role := RoleSource
		if roleStr == string(RoleTarget) {
			role = RoleTarget
		}
		if err := a.Register(service, role, data, url); err != nil {
			log.Printf("registry: load: skipping %s/%s: %v", service, roleStr, err)
			continue
		}
	}
	return a, nil
}

// sanitize turns a service name into a file-name stem: bytes outside
// [A-Za-z0-9.-], '_' included, become "_XX" in hex. The mapping is
// injective, and no stem holds "__", so "<stem>__<role>.wsdl" names one
// registration only.
func sanitize(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '.':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "_%02X", c)
		}
	}
	return b.String()
}
