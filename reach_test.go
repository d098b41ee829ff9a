package xdx_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the non-test declarations that no binary, export or
// benchmark reaches but that stay on purpose, each with its reason. An
// entry also covers what it alone reaches, such as the unexported types
// behind netsim's fault writer.
var reachAllow = map[string]string{
	"core.Model.Explain":             "caller to come: xdxd -explain (ROADMAP item 7)",
	"core.MinMaxPlacement":           "places one program, as the placement ablation bench does; Optimal shares its cut across programs",
	"relstore.Store.Table":           "endpoint tests read a store's tables through it",
	"relstore.Table.Indexes":         "endpoint tests read a table's indexes through it",
	"netsim.FaultyLink.Writer":       "fault-injection harness for other packages' tests",
	"netsim.FaultyLink.RoundTripper": "fault-injection harness for other packages' tests",
	"netsim.FaultyLink.Counts":       "fault-injection harness for other packages' tests",
	"netsim.FaultyLink.Middleware":   "fault-injection harness for other packages' tests",
	"netsim.NewFaultyLink":           "fault-injection harness for other packages' tests",
	"netsim.Link.Throttle":           "bandwidth sweep to come (ROADMAP item 1)",
	"wire.StreamShipmentCodec":       "shipment harness for endpoint, registry and root tests",
	"wire.ReadShipment":              "shipment harness for endpoint, registry and root tests",
	"xmltree.Equal":                  "oracle comparator in other packages' tests",
	"xmltree.Marshal":                "oracle comparator in other packages' tests",
	"schema.Opt":                     "fixture builder for relstore tests",
	"durable.Journal.Compact":        "warm-restart substrate (ROADMAP item 9)",
	"durable.WAL.Append":             "warm-restart substrate (ROADMAP item 9)",
	"registry.Agency.Save":           "the persistence tests save through it",
}

// TestReachability fails on dead code: every top-level declaration under
// internal/ and in the root package must be reached from a root, or be
// covered by reachAllow. The roots are every init, every main under cmd/,
// benchmark/ and examples/, and every name declared in xdx.go. A
// declaration is reached when reached code names it. A method is also
// reached when its receiver type is reached and some interface of the
// module, or of a package it imports, has a method of that name, since a
// call through the interface may land on it. The test also fails on an
// allowlist entry that names nothing or that a root reaches.
func TestReachability(t *testing.T) {
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*reachDecl, len(m.decls))
	for _, d := range m.decls {
		byName[d.name] = d
	}
	reached := m.reach(m.roots)
	covered := append([]types.Object(nil), m.roots...)
	for name := range reachAllow {
		switch d := byName[name]; {
		case d == nil:
			t.Errorf("reachAllow entry %s names no declaration; drop it", name)
		case reached[d.obj]:
			t.Errorf("reachAllow entry %s is reached (%s); drop it", name, d.where)
		default:
			covered = append(covered, d.obj)
		}
	}
	reached = m.reach(covered)

	var dead []string
	lines := 0
	for _, d := range m.decls {
		if d.reported && !reached[d.obj] {
			dead = append(dead, fmt.Sprintf("%s %s (%d lines)", d.name, d.where, d.lines))
			lines += d.lines
		}
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Errorf("%d declarations (%d lines) are reached by no binary, export or benchmark; delete them, or list them in reachAllow with a reason:\n\t%s",
			len(dead), lines, strings.Join(dead, "\n\t"))
	}
}

// reachDecl is one top-level declaration: a func, a method, a type, or
// one var or const spec.
type reachDecl struct {
	obj      types.Object
	name     string // pkg.Name or pkg.Type.Method
	where    string // file:line
	lines    int    // doc comment included
	node     ast.Node
	info     *types.Info
	reported bool // under internal/ or in the root package
}

type reachModule struct {
	fset   *token.FileSet
	root   string // module directory
	path   string // module path
	std    types.ImporterFrom
	pkgs   map[string]*types.Package
	infos  map[string]*types.Info
	files  map[string][]*ast.File
	dirs   map[string]string // import path → directory
	decls  []*reachDecl
	byObj  map[types.Object]*reachDecl
	roots  []types.Object
	ifaces map[string]bool // method names of the interfaces in view
}

// loadModule parses and type-checks every non-test package of the module
// rooted at dir; the standard library is type-checked from source.
func loadModule(dir string) (*reachModule, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, l := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(l); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	fset := token.NewFileSet()
	m := &reachModule{
		fset:   fset,
		root:   root,
		path:   modPath,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:   map[string]*types.Package{},
		infos:  map[string]*types.Info{},
		files:  map[string][]*ast.File{},
		dirs:   map[string]string{},
		byObj:  map[types.Object]*reachDecl{},
		ifaces: map[string]bool{},
	}
	err = filepath.WalkDir(root, func(p string, e os.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if n := e.Name(); p != root && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, p)
		ip := modPath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		m.dirs[ip] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(m.dirs))
	for ip := range m.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := m.load(ip); err != nil {
			return nil, err
		}
	}
	for _, ip := range paths {
		m.collect(ip)
	}
	m.collectInterfaces()
	return m, nil
}

func (m *reachModule) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.root, 0)
}

func (m *reachModule) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == m.path || strings.HasPrefix(path, m.path+"/") {
		return m.load(path)
	}
	return m.std.ImportFrom(path, dir, mode)
}

// load type-checks the non-test files of one module package; it returns
// nil for a directory that holds none.
func (m *reachModule) load(ip string) (*types.Package, error) {
	if p, ok := m.pkgs[ip]; ok {
		return p, nil
	}
	dir, ok := m.dirs[ip]
	if !ok {
		return nil, fmt.Errorf("reach: no directory for %s", ip)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			m.pkgs[ip] = nil
			return nil, nil
		}
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(ip, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[ip], m.infos[ip], m.files[ip] = p, info, files
	return p, nil
}

// collect records one package's top-level declarations and its roots.
func (m *reachModule) collect(ip string) {
	p := m.pkgs[ip]
	if p == nil {
		return
	}
	info := m.infos[ip]
	rel := strings.TrimPrefix(strings.TrimPrefix(ip, m.path), "/")
	reported := rel == "" || strings.HasPrefix(rel, "internal/")
	isMainRoot := false
	for _, dir := range []string{"cmd", "benchmark", "examples"} {
		isMainRoot = isMainRoot || rel == dir || strings.HasPrefix(rel, dir+"/")
	}
	for _, f := range m.files[ip] {
		file := m.fset.Position(f.Pos()).Filename
		rootFile := rel == "" && filepath.Base(file) == "xdx.go"
		add := func(obj types.Object, node ast.Node, doc *ast.CommentGroup) {
			if obj == nil || obj.Name() == "_" {
				return
			}
			start := node.Pos()
			if doc != nil {
				start = doc.Pos()
			}
			name := p.Name() + "." + obj.Name()
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					name = p.Name() + "." + recvName(recv.Type()) + "." + obj.Name()
				}
			}
			pos := m.fset.Position(node.Pos())
			rp, _ := filepath.Rel(m.root, pos.Filename)
			d := &reachDecl{
				obj:      obj,
				name:     name,
				where:    fmt.Sprintf("%s:%d", filepath.ToSlash(rp), pos.Line),
				lines:    m.fset.Position(node.End()).Line - m.fset.Position(start).Line + 1,
				node:     node,
				info:     info,
				reported: reported,
			}
			m.decls = append(m.decls, d)
			m.byObj[obj] = d
			if rootFile {
				m.roots = append(m.roots, obj)
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[decl.Name]
				if decl.Name.Name == "init" && decl.Recv == nil || isMainRoot && decl.Name.Name == "main" && decl.Recv == nil {
					m.roots = append(m.roots, obj)
				}
				add(obj, decl, decl.Doc)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					var node ast.Node = spec
					var doc *ast.CommentGroup
					if !decl.Lparen.IsValid() {
						node, doc = decl, decl.Doc
					}
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if doc == nil {
							doc = spec.Doc
						}
						add(info.Defs[spec.Name], node, doc)
					case *ast.ValueSpec:
						if doc == nil {
							doc = spec.Doc
						}
						for _, id := range spec.Names {
							add(info.Defs[id], node, doc)
						}
					}
				}
			}
		}
	}
}

// collectInterfaces gathers the method names of every interface the module
// or any package it imports declares or spells out.
func (m *reachModule) collectInterfaces() {
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m.ifaces[it.Method(i).Name()] = true
			}
		}
	}
	for ip, p := range m.pkgs {
		if p == nil {
			continue
		}
		for _, q := range append([]*types.Package{p}, p.Imports()...) {
			s := q.Scope()
			for _, n := range s.Names() {
				if tn, ok := s.Lookup(n).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
		for _, tv := range m.infos[ip].Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
}

// reach returns the set of declarations reached from roots.
func (m *reachModule) reach(roots []types.Object) map[types.Object]bool {
	reached := map[types.Object]bool{}
	// methods lists each named type's declared methods.
	methods := map[*types.TypeName][]*reachDecl{}
	for _, d := range m.decls {
		if fn, ok := d.obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if tn := recvTypeName(recv.Type()); tn != nil {
					methods[tn] = append(methods[tn], d)
				}
			}
		}
	}
	work := append([]types.Object(nil), roots...)
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if _, ok := m.byObj[obj]; ok && !reached[obj] {
			work = append(work, obj)
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		d := m.byObj[obj]
		if d == nil {
			continue
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if u := d.info.Uses[id]; u != nil {
					mark(u)
				}
			}
			return true
		})
		if tn, ok := obj.(*types.TypeName); ok {
			for _, md := range methods[tn] {
				if m.ifaces[md.obj.Name()] {
					mark(md.obj)
				}
			}
		}
	}
	return reached
}

func recvTypeName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

func recvName(t types.Type) string {
	if tn := recvTypeName(t); tn != nil {
		return tn.Name()
	}
	return "?"
}
