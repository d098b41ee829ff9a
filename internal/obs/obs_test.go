package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// The "observability off" state: nil registry, logger, span. Every
	// call must answer without minting or panicking.
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(7)
	r.Histogram("h").Observe(3)
	r.Func("f", func() any { return 1 })
	if got := r.Counter("c").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	if len(r.Snapshot()) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var s *Span
	s.Child("x").Set("k", "v")
	s.End()
	if s.Duration() != 0 || s.String() != "" || s.Kids() != nil {
		t.Error("nil span leaked state")
	}
	l := OrNop(nil)
	if l.Enabled(LevelError) {
		t.Error("nop logger enabled")
	}
	l.Log(LevelError, "dropped")
}

func TestRegistryCountersGaugesFuncs(t *testing.T) {
	r := NewRegistry()
	r.Counter("soap.requests").Add(3)
	r.Counter("soap.requests").Inc()
	r.Gauge("sessions.live").Set(3)
	r.Func("breakers", func() any { return map[string]string{"u": "closed"} })
	snap := r.Snapshot()
	if snap["soap.requests"] != int64(4) {
		t.Errorf("counter = %v", snap["soap.requests"])
	}
	if snap["sessions.live"] != int64(3) {
		t.Errorf("gauge = %v", snap["sessions.live"])
	}
	if m, ok := snap["breakers"].(map[string]string); !ok || m["u"] != "closed" {
		t.Errorf("func metric = %v", snap["breakers"])
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("millis")
	for _, v := range []float64{0.5, 1, 3, 100} {
		h.Observe(v)
	}
	snap := h.snapshot()
	if snap["count"] != int64(4) || snap["min"] != 0.5 || snap["max"] != float64(100) {
		t.Errorf("histogram snapshot = %v", snap)
	}
	// 0.5 → le_1, 1 → le_2, 3 → le_4, 100 → le_128.
	for _, k := range []string{"le_1", "le_2", "le_4", "le_128"} {
		if snap[k] != int64(1) {
			t.Errorf("%s = %v, want 1", k, snap[k])
		}
	}
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	if h.count != 5 {
		t.Errorf("count after ObserveSince = %d", h.count)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	// Minting and bumping the same names from many goroutines must be
	// race-free (run under -race) and lose no increments.
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
				r.Histogram("h").Observe(float64(j))
				r.Gauge("g").Set(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestMux(t *testing.T) {
	r := NewRegistry()
	r.Counter("exchange.total").Add(2)
	h := Mux(r)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var snap map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, rec.Body.String())
	}
	if snap["exchange.total"] != float64(2) {
		t.Errorf("exchange.total = %v", snap["exchange.total"])
	}
}

func TestTextLogger(t *testing.T) {
	var buf strings.Builder
	l := NewTextLogger(&buf, LevelInfo)
	l.now = func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }
	if l.Enabled(LevelDebug) {
		t.Error("debug enabled at info level")
	}
	l.Log(LevelDebug, "hidden")
	l.Log(LevelInfo, "exchange done", "service", "Auction", "retries", 2)
	got := buf.String()
	want := "03:04:05.000 INFO exchange done service=Auction retries=2\n"
	if got != want {
		t.Errorf("log line = %q, want %q", got, want)
	}
}

func TestSpanTree(t *testing.T) {
	root := NewSpan("exchange")
	root.Set("service", "Auction")
	src := root.Child("source")
	a0 := src.Child("attempt")
	a0.Set("try", "0")
	a0.End()
	src.End()
	root.End()
	d := root.Duration()
	if d <= 0 {
		t.Errorf("root duration = %v", d)
	}
	root.End() // second End must not move the frozen duration
	if root.Duration() != d {
		t.Error("End not idempotent")
	}
	if root.attrs[0] != (spanAttr{"service", "Auction"}) || a0.attrs[0] != (spanAttr{"try", "0"}) {
		t.Error("attrs lost")
	}
	kids := root.Kids()
	if len(kids) != 1 || kids[0].Name != "source" || len(kids[0].Kids()) != 1 {
		t.Errorf("tree shape wrong: %s", root)
	}
	s := root.String()
	for _, want := range []string{"exchange ", "service=Auction", "\n  source ", "\n    attempt ", "try=0"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := NewSpan("exchange")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c := root.Child("attempt")
				c.Set("k", "v")
				c.End()
			}
		}()
	}
	wg.Wait()
	if got := len(root.Kids()); got != 800 {
		t.Errorf("kids = %d, want 800", got)
	}
}
