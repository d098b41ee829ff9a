package core

import (
	"fmt"
	"strconv"
	"strings"

	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// Filter is a compiled service-argument predicate (§3.2) over root-fragment
// records: a small XPath subset of the form
//
//	path            existence: keep records with at least one match
//	path op literal leaf value comparison
//
// where path is a '/'-separated chain of element names (each a schema child
// of the previous), op is one of = != < <= > >=, and literal is a quoted
// string or a bare token. The first step is located anywhere inside the
// record (XPath .//), matching how service arguments name elements without
// spelling out the fragment's internal layout; subsequent steps are strict
// child steps. If the literal parses as a number the comparison is numeric
// and non-numeric leaf text never matches; otherwise it is lexicographic.
type Filter struct {
	// Expr is the source expression, round-tripped onto the wire as the
	// ExecuteSource filter attribute.
	Expr string

	steps   []string
	op      string
	value   string
	num     float64
	numeric bool
}

// filterOps in probe order: two-char operators must be tried before their
// one-char prefixes.
var filterOps = []string{"!=", "<=", ">=", "=", "<", ">"}

// CompileFilter parses and schema-checks expr. Every step must name a
// schema element, consecutive steps must be parent/child in the schema, and
// a comparison's final step must be a leaf (it carries the compared text).
func CompileFilter(expr string, sch *schema.Schema) (*Filter, error) {
	src := strings.TrimSpace(expr)
	if src == "" {
		return nil, fmt.Errorf("core: empty filter")
	}
	f := &Filter{Expr: src}
	pathPart := src
	for _, op := range filterOps {
		if i := strings.Index(src, op); i >= 0 {
			pathPart = src[:i]
			f.op = op
			lit, err := parseFilterLiteral(src[i+len(op):])
			if err != nil {
				return nil, fmt.Errorf("core: filter %q: %w", src, err)
			}
			f.value = lit
			if n, err := strconv.ParseFloat(lit, 64); err == nil {
				f.num, f.numeric = n, true
			}
			break
		}
	}
	for _, step := range strings.Split(strings.TrimSpace(pathPart), "/") {
		step = strings.TrimSpace(step)
		if step == "" {
			return nil, fmt.Errorf("core: filter %q: empty path step", src)
		}
		f.steps = append(f.steps, step)
	}
	if sch != nil {
		for i, step := range f.steps {
			if sch.ByName(step) == nil {
				return nil, fmt.Errorf("core: filter %q: unknown element %q", src, step)
			}
			if i > 0 {
				ok := false
				for _, p := range sch.Parents(step) {
					if p == f.steps[i-1] {
						ok = true
						break
					}
				}
				if !ok {
					return nil, fmt.Errorf("core: filter %q: %q is not a child of %q", src, step, f.steps[i-1])
				}
			}
		}
		if f.op != "" && !sch.ByName(f.steps[len(f.steps)-1]).IsLeaf() {
			return nil, fmt.Errorf("core: filter %q: comparison target %q is not a leaf", src, f.steps[len(f.steps)-1])
		}
	}
	return f, nil
}

// CheckRoot verifies the filter can ever match a record of fr's root
// fragment: every path step must be an element the root fragment covers.
// Root records carry only the root fragment's elements, so a step outside
// that set — say a leaf that lives three fragments down in a
// most-fragmented layout — would silently filter out every record; this
// turns that into a loud plan-time error instead.
func (f *Filter) CheckRoot(fr *Fragmentation) error {
	if f == nil || fr == nil || len(fr.Fragments) == 0 {
		return nil
	}
	root := fr.Fragments[0]
	for _, step := range f.steps {
		if !root.Elems[step] {
			return fmt.Errorf("core: filter %q: element %q is not in root fragment %q (layout %s) — the filter would match nothing",
				f.Expr, step, root.Name, fr.Name)
		}
	}
	return nil
}

// parseFilterLiteral strips optional single or double quotes from the
// right-hand side of a comparison.
func parseFilterLiteral(s string) (string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", fmt.Errorf("missing comparison value")
	}
	if len(s) >= 2 && (s[0] == '\'' || s[0] == '"') {
		if s[len(s)-1] != s[0] {
			return "", fmt.Errorf("unterminated quote in %q", s)
		}
		return s[1 : len(s)-1], nil
	}
	return s, nil
}

// Match evaluates the filter against one record tree: its first step
// anywhere in the record, the rest below it.
func (f *Filter) Match(rec *xmltree.Node) bool {
	if rec == nil {
		return false
	}
	if rec.Name == f.steps[0] && f.matchFrom(rec, f.steps[1:]) {
		return true
	}
	for _, k := range rec.Kids {
		if f.Match(k) {
			return true
		}
	}
	return false
}

func (f *Filter) matchFrom(n *xmltree.Node, rest []string) bool {
	if len(rest) == 0 {
		if f.op == "" {
			return true
		}
		return f.compare(n.Text)
	}
	for _, k := range n.Kids {
		if k.Name == rest[0] && f.matchFrom(k, rest[1:]) {
			return true
		}
	}
	return false
}

func (f *Filter) compare(text string) bool {
	if f.numeric {
		n, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
		if err != nil {
			return false
		}
		switch f.op {
		case "=":
			return n == f.num
		case "!=":
			return n != f.num
		case "<":
			return n < f.num
		case "<=":
			return n <= f.num
		case ">":
			return n > f.num
		case ">=":
			return n >= f.num
		}
		return false
	}
	switch f.op {
	case "=":
		return text == f.value
	case "!=":
		return text != f.value
	case "<":
		return text < f.value
	case "<=":
		return text <= f.value
	case ">":
		return text > f.value
	case ">=":
		return text >= f.value
	}
	return false
}

// Predicate adapts the filter to FilterSources' keep callback; a nil
// filter yields a nil predicate (keep everything).
func (f *Filter) Predicate() func(*xmltree.Node) bool {
	if f == nil {
		return nil
	}
	return f.Match
}

// String returns the source expression.
func (f *Filter) String() string { return f.Expr }
