package netsim

// Fault injection. The paper ran its exchange over a real wide-area link;
// real links drop connections, stall, and truncate streams. A FaultyLink
// decorates a Link with seeded, probabilistic faults so every reliability
// behaviour of the exchange path (internal/reliable) is deterministically
// testable: the same seed produces the same fault sequence. Faults surface
// in the three places a distributed exchange meets the network — an
// io.Writer wrapper (byte streams), an http.RoundTripper (client calls),
// and an http.Handler middleware (server side).

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// ErrInjected marks any failure produced by a FaultyLink, so tests and the
// retry engine can tell injected faults from real bugs.
var ErrInjected = errors.New("netsim: injected fault")

// Faults configures the fault mix of a FaultyLink. All probabilities are
// per stream / per request, in [0,1].
type Faults struct {
	// Seed makes the fault sequence reproducible, like telgen/sim configs.
	Seed int64
	// DropProb fails a stream or request before the first byte moves
	// (connection refused / reset on connect).
	DropProb float64
	// TruncateProb cuts a stream after a random prefix (mid-stream reset).
	// On the RoundTripper it alternates between tearing the request body
	// and the response body.
	TruncateProb float64
	// StallProb pauses a stream once for Stall before continuing.
	StallProb float64
	// Stall is the injected pause duration (default 10ms when StallProb>0).
	Stall time.Duration
	// HTTP5xxProb makes the RoundTripper or middleware answer with a
	// synthesized 503 (plain-text body — deliberately not a SOAP fault).
	HTTP5xxProb float64
	// MaxTruncate bounds the random prefix length before a truncation cut
	// (default 4096 bytes).
	MaxTruncate int
}

// FaultCounts reports how many faults of each kind a FaultyLink injected.
type FaultCounts struct {
	Drops, Truncates, Stalls, HTTP5xx int64
}

// FaultyLink decorates a link with deterministic fault injection. All
// random decisions come from one seeded, mutex-guarded source, so a fixed
// call sequence yields a fixed fault sequence.
type FaultyLink struct {
	Link
	Faults

	// OnFault, when set, observes every injected fault by kind ("drop",
	// "http5xx", "truncate", "stall") — the hook observability layers bind
	// counters and logs to. It runs outside the link's lock and must be
	// safe for concurrent use. Set before the link carries traffic.
	OnFault func(kind string)

	mu     sync.Mutex
	rng    *rand.Rand
	counts FaultCounts
}

// NewFaultyLink seeds a faulty decorator over l.
func NewFaultyLink(l Link, f Faults) *FaultyLink {
	if f.Stall <= 0 {
		f.Stall = 10 * time.Millisecond
	}
	if f.MaxTruncate <= 0 {
		f.MaxTruncate = 4096
	}
	return &FaultyLink{Link: l, Faults: f, rng: rand.New(rand.NewSource(f.Seed))}
}

// Counts returns the faults injected so far.
func (f *FaultyLink) Counts() FaultCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// roll draws the fault plan for one stream/request under the lock, keeping
// the sequence deterministic even when callers race.
type faultPlan struct {
	drop     bool
	http5xx  bool
	stall    bool
	truncate bool
	cutAfter int  // bytes before the truncation cut
	onReq    bool // RoundTripper: tear the request (vs the response)
}

func (f *FaultyLink) roll(withHTTP bool) faultPlan {
	f.mu.Lock()
	var p faultPlan
	switch {
	case f.rng.Float64() < f.DropProb:
		p.drop = true
		f.counts.Drops++
	case withHTTP && f.rng.Float64() < f.HTTP5xxProb:
		p.http5xx = true
		f.counts.HTTP5xx++
	case f.rng.Float64() < f.TruncateProb:
		p.truncate = true
		p.cutAfter = 1 + f.rng.Intn(f.MaxTruncate)
		p.onReq = f.rng.Intn(2) == 0
		f.counts.Truncates++
	}
	if f.rng.Float64() < f.StallProb {
		p.stall = true
		f.counts.Stalls++
	}
	f.mu.Unlock()
	if f.OnFault != nil {
		switch {
		case p.drop:
			f.OnFault("drop")
		case p.http5xx:
			f.OnFault("http5xx")
		case p.truncate:
			f.OnFault("truncate")
		}
		if p.stall {
			f.OnFault("stall")
		}
	}
	return p
}

// Writer wraps w with this link's faults (and its bandwidth throttle): the
// stream may refuse to start, stall once, or cut after a random prefix.
func (f *FaultyLink) Writer(w io.Writer) io.Writer {
	p := f.roll(false)
	return &faultyWriter{w: f.Throttle(w), plan: p, stall: f.Stall}
}

type faultyWriter struct {
	w       io.Writer
	plan    faultPlan
	stall   time.Duration
	written int
	stalled bool
}

// Write implements io.Writer.
func (fw *faultyWriter) Write(b []byte) (int, error) {
	if fw.plan.drop {
		return 0, fmt.Errorf("%w: connection dropped", ErrInjected)
	}
	if fw.plan.stall && !fw.stalled {
		fw.stalled = true
		time.Sleep(fw.stall)
	}
	if fw.plan.truncate {
		room := fw.plan.cutAfter - fw.written
		if room <= 0 {
			return 0, fmt.Errorf("%w: stream truncated after %d bytes", ErrInjected, fw.written)
		}
		if len(b) > room {
			n, _ := fw.w.Write(b[:room])
			fw.written += n
			return n, fmt.Errorf("%w: stream truncated after %d bytes", ErrInjected, fw.written)
		}
	}
	n, err := fw.w.Write(b)
	fw.written += n
	return n, err
}

// RoundTripper wraps base (nil = http.DefaultTransport) with this link's
// faults: requests may be dropped before dialing, answered with a
// synthesized 503, stalled, or torn mid-stream on either side.
func (f *FaultyLink) RoundTripper(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &faultyTransport{f: f, base: base}
}

type faultyTransport struct {
	f    *FaultyLink
	base http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (t *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.f.roll(true)
	if p.stall {
		time.Sleep(t.f.Stall)
	}
	switch {
	case p.drop:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("%w: connection dropped", ErrInjected)
	case p.http5xx:
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"text/plain"}},
			Body:          io.NopCloser(strings.NewReader("injected outage\n")),
			ContentLength: -1,
			Request:       req,
		}, nil
	case p.truncate && p.onReq && req.Body != nil:
		req.Body = &truncatedReadCloser{rc: req.Body, remain: p.cutAfter}
		return t.base.RoundTrip(req)
	case p.truncate && !p.onReq:
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &truncatedReadCloser{rc: resp.Body, remain: p.cutAfter}
		return resp, nil
	}
	return t.base.RoundTrip(req)
}

// truncatedReadCloser yields remain bytes, then fails like a torn
// connection.
type truncatedReadCloser struct {
	rc     io.ReadCloser
	remain int
}

// Read implements io.Reader.
func (r *truncatedReadCloser) Read(b []byte) (int, error) {
	if r.remain <= 0 {
		return 0, fmt.Errorf("%w: stream truncated", ErrInjected)
	}
	if len(b) > r.remain {
		b = b[:r.remain]
	}
	n, err := r.rc.Read(b)
	r.remain -= n
	return n, err
}

// Close implements io.Closer.
func (r *truncatedReadCloser) Close() error { return r.rc.Close() }

// Middleware wraps an HTTP handler with server-side faults, for chaos
// runs of the daemons: requests may be aborted before the handler runs,
// answered 503, stalled, or torn mid-stream — like the RoundTripper, a
// truncation alternates between the request body (the handler reads a
// random prefix, then the connection dies unanswered) and the response
// (cut after a random prefix).
func (f *FaultyLink) Middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := f.roll(true)
		if p.stall {
			time.Sleep(f.Stall)
		}
		switch {
		case p.drop:
			// Kill the connection without a response, like a crashed peer.
			panic(http.ErrAbortHandler)
		case p.http5xx:
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
		case p.truncate && p.onReq:
			r.Body = &truncatedReadCloser{rc: r.Body, remain: p.cutAfter}
			h.ServeHTTP(&truncatedResponseWriter{ResponseWriter: w}, r)
			panic(http.ErrAbortHandler)
		case p.truncate:
			h.ServeHTTP(&truncatedResponseWriter{ResponseWriter: w, remain: p.cutAfter}, r)
		default:
			h.ServeHTTP(w, r)
		}
	})
}

// truncatedResponseWriter lets cutAfter bytes through, then aborts the
// connection mid-response.
type truncatedResponseWriter struct {
	http.ResponseWriter
	remain int
}

// Write implements io.Writer.
func (t *truncatedResponseWriter) Write(b []byte) (int, error) {
	if t.remain <= 0 {
		panic(http.ErrAbortHandler)
	}
	if len(b) > t.remain {
		t.ResponseWriter.Write(b[:t.remain])
		panic(http.ErrAbortHandler)
	}
	t.remain -= len(b)
	return t.ResponseWriter.Write(b)
}
