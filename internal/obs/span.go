package obs

// Trace spans. One exchange produces a small tree of timed steps
// (exchange → source attempt → chunk delivery → probe → commit); the
// registry attaches the root to its Report so callers see where an
// exchange's wall-clock went, including the attempts that failed. Spans
// time with the monotonic clock (time.Since) and are safe for concurrent
// child creation — retried attempts may overlap a probe.

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Span is one timed step of a trace. A nil *Span is the "tracing off"
// state: every method answers and child spans stay nil.
type Span struct {
	// Name says what the step is ("exchange", "source.attempt", …).
	Name string

	mu    sync.Mutex
	start time.Time
	dur   time.Duration
	ended bool
	attrs []spanAttr
	kids  []*Span
}

type spanAttr struct{ k, v string }

// NewSpan starts a root span.
func NewSpan(name string) *Span {
	return &Span{Name: name, start: time.Now()}
}

// Child starts a sub-span. Nil-safe: a nil parent yields a nil child.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	k := NewSpan(name)
	s.mu.Lock()
	s.kids = append(s.kids, k)
	s.mu.Unlock()
	return k
}

// Set attaches a key/value attribute. Nil-safe.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].k == key {
			s.attrs[i].v = value
			return
		}
	}
	s.attrs = append(s.attrs, spanAttr{key, value})
}

// End freezes the span's duration; only the first End counts. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
}

// Duration reports the frozen duration, or the running elapsed time for a
// span that has not ended. Nil reads zero.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// Kids returns a snapshot of the child spans. Nil reads nil.
func (s *Span) Kids() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.kids...)
}

// String renders the span tree, one indented line per span with duration
// and attributes — the log/debug export.
func (s *Span) String() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.render(&b, 0)
	return b.String()
}

func (s *Span) render(b *strings.Builder, depth int) {
	s.mu.Lock()
	name, dur, attrs, kids := s.Name, s.dur, s.attrs, append([]*Span(nil), s.kids...)
	if !s.ended {
		dur = time.Since(s.start)
	}
	s.mu.Unlock()
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s %.3fms", name, float64(dur)/float64(time.Millisecond))
	for _, a := range attrs {
		fmt.Fprintf(b, " %s=%s", a.k, a.v)
	}
	b.WriteByte('\n')
	for _, k := range kids {
		k.render(b, depth+1)
	}
}
