package registry

// End-to-end check of the observability layer: a fault-injected reliable
// exchange with a Logger and Metrics registry attached must surface its
// retries and resumes as counters, narrate them to the log, attach a
// populated trace to the Report, and expose everything over the /metrics
// endpoint the daemons mount.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"xdx/internal/netsim"
	"xdx/internal/obs"
)

// kid returns the first child span with the given name, or nil.
func kid(s *obs.Span, name string) *obs.Span {
	for _, k := range s.Kids() {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// spanLine is the span's own line of its rendering: name, duration and
// attributes as " key=value".
func spanLine(s *obs.Span) string {
	line, _, _ := strings.Cut(s.String(), "\n")
	return line
}

func TestObservedReliableExchange(t *testing.T) {
	const seed = 1 // every seed in faultSeeds injects at least one fault
	fl := netsim.NewFaultyLink(netsim.Loopback(), soakFaults(seed))
	ag, plan, tgtStore, done := startFaultedExchange(t, fl)
	defer done()
	met := obs.NewRegistry()
	fl.OnFault = func(kind string) { met.Counter("netsim.faults." + kind).Inc() }
	var logBuf bytes.Buffer
	logger := obs.NewTextLogger(&logBuf, obs.LevelDebug)

	rep, err := ag.ExecuteOpts("Auction", plan, ExecOptions{
		Link:        netsim.Loopback(),
		Reliability: overLink(soakConfig(seed), fl),
		Logger:      logger,
		Metrics:     met,
	})
	if err != nil {
		t.Fatalf("exchange failed: %v (injected %+v)", err, fl.Counts())
	}
	if rep.Retries == 0 {
		t.Fatalf("seed injected no retries (injected %+v)", fl.Counts())
	}

	// Counters mirror the report.
	if got := met.Counter("exchange.total").Value(); got != 1 {
		t.Errorf("exchange.total = %d, want 1", got)
	}
	if got := met.Counter("exchange.errors").Value(); got != 0 {
		t.Errorf("exchange.errors = %d, want 0", got)
	}
	if got := met.Counter("exchange.retries").Value(); got != int64(rep.Retries) {
		t.Errorf("exchange.retries = %d, report says %d", got, rep.Retries)
	}
	if got := met.Counter("exchange.resumes").Value(); got != int64(rep.Resumes) {
		t.Errorf("exchange.resumes = %d, report says %d", got, rep.Resumes)
	}
	if got := met.Counter("exchange.wire_bytes").Value(); got != rep.WireBytes {
		t.Errorf("exchange.wire_bytes = %d, report says %d", got, rep.WireBytes)
	}
	if got := met.Snapshot()["exchange.millis"].(map[string]any)["count"]; got != int64(1) {
		t.Errorf("exchange.millis count = %d, want 1", got)
	}
	c := fl.Counts()
	faults := met.Counter("netsim.faults.drop").Value() +
		met.Counter("netsim.faults.truncate").Value() +
		met.Counter("netsim.faults.http5xx").Value()
	if want := int64(c.Drops + c.Truncates + c.HTTP5xx); faults != want {
		t.Errorf("netsim.faults.* total = %d, link counted %d", faults, want)
	}

	// The retry hook narrated each backoff to the logger.
	if !strings.Contains(logBuf.String(), "retrying call") {
		t.Error("log has no 'retrying call' line despite retries")
	}
	if !strings.Contains(logBuf.String(), "exchange complete") {
		t.Error("log has no completion line")
	}

	// The trace covers the exchange: a root span carrying the exchange id,
	// a source phase — the source delivers, so there is no separate
	// delivery phase — with an attempt per try and the resume probes under
	// the retries, and a commit for EndSession.
	tr := rep.Trace
	if tr == nil || tr.Name != "exchange" {
		t.Fatalf("report trace = %+v", tr)
	}
	if !strings.Contains(spanLine(tr), " service=Auction") || !strings.Contains(spanLine(tr), " exchange="+rep.Exchange) {
		t.Errorf("trace attrs: %s (exchange %q)", spanLine(tr), rep.Exchange)
	}
	if tr.Duration() <= 0 {
		t.Error("trace has no duration")
	}
	src := kid(tr, "source")
	if src == nil || kid(tr, "commit") == nil || kid(tr, "deliver") != nil {
		t.Fatalf("trace phases; kids = %v", tr.Kids())
	}
	if !strings.Contains(spanLine(src), " session=") {
		t.Error("source span missing session attr")
	}
	attempts, probes := 0, 0
	for _, k := range src.Kids() {
		if k.Name == "attempt" {
			attempts++
			if kid(k, "probe") != nil {
				probes++
			}
		}
	}
	if attempts < 2 || probes != attempts-1 {
		t.Errorf("source span has %d attempts and %d probes; want a probe before every retry", attempts, probes)
	}
	if tgtStore.Rows() == 0 {
		t.Error("observed exchange delivered nothing")
	}

	// The ops mux exports the same registry: /healthz is alive and
	// /metrics carries the counters as JSON.
	ops := httptest.NewServer(obs.Mux(met))
	defer ops.Close()
	hz, err := http.Get(ops.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", hz.StatusCode)
	}
	mr, err := http.Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	raw, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, raw)
	}
	if got, ok := snap["exchange.retries"].(float64); !ok || int(got) != rep.Retries {
		t.Errorf("/metrics exchange.retries = %v, report says %d", snap["exchange.retries"], rep.Retries)
	}
}

// TestObservedExchangeFailure checks the error path keeps its books: a
// fault seed without reliability kills the exchange, and the metrics and
// trace still record the failed run.
func TestObservedExchangeFailure(t *testing.T) {
	fl := netsim.NewFaultyLink(netsim.Loopback(), soakFaults(1))
	ag, plan, _, done := startFaultedExchange(t, fl)
	defer done()
	met := obs.NewRegistry()
	rep, err := ag.ExecuteOpts("Auction", plan, ExecOptions{
		Link:        netsim.Loopback(),
		Reliability: overLink(nil, fl),
		Metrics:     met,
	})
	if err == nil {
		t.Fatal("unreliable exchange survived the fault seed")
	}
	if got := met.Counter("exchange.total").Value(); got != 1 {
		t.Errorf("exchange.total = %d, want 1", got)
	}
	if got := met.Counter("exchange.errors").Value(); got != 1 {
		t.Errorf("exchange.errors = %d, want 1", got)
	}
	if rep == nil || rep.Trace == nil {
		t.Fatalf("failed exchange returned no trace (report %+v)", rep)
	}
	if !strings.Contains(spanLine(rep.Trace), " service=Auction") {
		t.Errorf("trace attrs: %s", spanLine(rep.Trace))
	}
}

// lineLog is an obs.Logger that keeps its lines.
type lineLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *lineLog) Enabled(obs.Level) bool { return true }

func (l *lineLog) Log(level obs.Level, msg string, kv ...any) {
	line := level.String() + " " + msg
	for i := 0; i+1 < len(kv); i += 2 {
		line += fmt.Sprintf(" %v=%v", kv[i], kv[i+1])
	}
	l.mu.Lock()
	l.lines = append(l.lines, line)
	l.mu.Unlock()
}

// TestExchangeIDOnEveryEndpointLogLine: one exchange under injected faults
// on both hops leaves log lines on the source and the target — requests
// served, the source's calls to the target, failed deliveries, executes —
// and every one of them carries the exchange id the report names.
func TestExchangeIDOnEveryEndpointLogLine(t *testing.T) {
	fl := netsim.NewFaultyLink(netsim.Loopback(), soakFaults(7))
	var srcLog, tgtLog lineLog
	w := startFaultedWorld(t, fl)
	defer w.close()
	w.src.SetObs(&srcLog, nil)
	w.tgt.SetObs(&tgtLog, nil)
	rep, err := w.ag.ExecuteOpts("Auction", w.plan, ExecOptions{
		Link: netsim.Loopback(), Reliability: overLink(soakConfig(7), fl),
	})
	if err != nil {
		t.Fatalf("exchange failed: %v (injected %+v)", err, fl.Counts())
	}
	if rep.Retries == 0 || rep.Exchange == "" {
		t.Fatalf("retries = %d, exchange id %q; want a faulted exchange with an id", rep.Retries, rep.Exchange)
	}
	stamp := " exchange=" + rep.Exchange
	for role, l := range map[string]*lineLog{"source": &srcLog, "target": &tgtLog} {
		l.mu.Lock()
		if len(l.lines) == 0 {
			t.Errorf("the %s logged nothing", role)
		}
		for _, line := range l.lines {
			if !strings.Contains(line+" ", stamp+" ") {
				t.Errorf("%s log line without the exchange id %s: %s", role, rep.Exchange, line)
			}
		}
		t.Logf("%s: %d lines, e.g. %q", role, len(l.lines), l.lines[0])
		l.mu.Unlock()
	}
}
