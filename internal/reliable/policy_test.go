package reliable

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"xdx/internal/soap"
)

// testRetrier returns a retrier whose sleeps are recorded, not taken.
func testRetrier(p Policy, seed int64) (*Retrier, *[]time.Duration) {
	r := NewRetrier(p, seed)
	var slept []time.Duration
	r.sleep = func(d time.Duration) { slept = append(slept, d) }
	return r, &slept
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	r, slept := testRetrier(Policy{MaxAttempts: 5}, 1)
	calls := 0
	err := r.Do("op", nil, func(try int) error {
		if try != calls {
			t.Fatalf("try = %d, want %d", try, calls)
		}
		calls++
		if calls < 3 {
			return io.ErrUnexpectedEOF
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(*slept))
	}
	if r.Retries() != 2 {
		t.Fatalf("Retries = %d", r.Retries())
	}
}

func TestRetryStopsAtMaxAttempts(t *testing.T) {
	r, _ := testRetrier(Policy{MaxAttempts: 3}, 1)
	calls := 0
	err := r.Do("op", nil, func(int) error { calls++; return io.ErrUnexpectedEOF })
	if err == nil || calls != 3 {
		t.Fatalf("err = %v, calls = %d", err, calls)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("last error not wrapped: %v", err)
	}
}

func TestRetryDoesNotRetryApplicationFaults(t *testing.T) {
	r, _ := testRetrier(Policy{}, 1)
	calls := 0
	fault := &soap.Fault{Code: "soap:Server", String: "missing program", HTTPStatus: 500}
	err := r.Do("op", nil, func(int) error { calls++; return fault })
	if calls != 1 {
		t.Fatalf("application fault retried %d times", calls)
	}
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("fault lost: %v", err)
	}
}

func TestRetryBudgetShared(t *testing.T) {
	// Budget 3 across two calls: the second call gets only what the first
	// left over.
	r, _ := testRetrier(Policy{MaxAttempts: 10, Budget: 3}, 1)
	calls := 0
	r.Do("a", nil, func(try int) error {
		calls++
		if try < 2 {
			return io.ErrUnexpectedEOF
		}
		return nil
	}) // spends 2 retries
	err := r.Do("b", nil, func(int) error { calls++; return io.ErrUnexpectedEOF })
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want budget exhaustion, got %v", err)
	}
	if r.Retries() != 3 {
		t.Fatalf("Retries = %d, want 3", r.Retries())
	}
}

func TestRetryDeadline(t *testing.T) {
	r, _ := testRetrier(Policy{MaxAttempts: 10, Deadline: time.Minute}, 1)
	clock := time.Unix(0, 0)
	r.now = func() time.Time { return clock }
	r.start = clock
	calls := 0
	err := r.Do("op", nil, func(int) error {
		calls++
		clock = clock.Add(45 * time.Second)
		return io.ErrUnexpectedEOF
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (second attempt crossed the deadline)", calls)
	}
}

func TestBackoffFullJitterBounds(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	r := NewRetrier(p, 42)
	for n := 0; n < 10; n++ {
		ceil := p.BaseDelay << uint(n)
		if ceil > p.MaxDelay || ceil <= 0 {
			ceil = p.MaxDelay
		}
		for i := 0; i < 50; i++ {
			d := r.backoff(n)
			if d < 0 || d > ceil {
				t.Fatalf("backoff(%d) = %v outside [0, %v]", n, d, ceil)
			}
		}
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		r := NewRetrier(Policy{}, seed)
		var out []time.Duration
		for n := 0; n < 8; n++ {
			out = append(out, r.backoff(n))
		}
		return out
	}
	a, b := seq(9), seq(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded backoff diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// A retrier whose first attempt succeeds draws no backoff, so it never
// seeds its jitter source (about 4.9 KB of math/rand state): starting one
// and running a clean call allocates under 1 KB.
func TestRetrierFirstTrySuccessAllocatesLittle(t *testing.T) {
	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := NewRetrier(Policy{}, int64(i)).Do("op", nil, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<10 {
		t.Errorf("a retrier whose first attempt succeeds allocated %d B, want < 1 KiB", per)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"transport", io.ErrUnexpectedEOF, true},
		{"wrapped transport", fmt.Errorf("call: %w", io.ErrUnexpectedEOF), true},
		{"503 fault", &soap.Fault{Code: "soap:HTTP", String: "outage", HTTPStatus: 503}, true},
		{"502 soap fault", &soap.Fault{Code: "soap:Server", HTTPStatus: 502}, true},
		{"unparsable 500", &soap.Fault{Code: "soap:HTTP", HTTPStatus: 500}, true},
		{"application 500", &soap.Fault{Code: "soap:Server", HTTPStatus: 500}, false},
		{"client fault", &soap.Fault{Code: "soap:Client", HTTPStatus: 400}, false},
		{"server-side fault unsent", &soap.Fault{Code: "soap:Server"}, false},
		{"open circuit", ErrOpen, false},
		{"permanent transport", Permanent(io.ErrUnexpectedEOF), false},
		{"wrapped permanent", fmt.Errorf("call: %w", Permanent(io.ErrUnexpectedEOF)), false},
		{"payload rejection", &soap.PayloadError{Err: fmt.Errorf("unknown fragment")}, false},
		{"wrapped payload rejection", fmt.Errorf("scan: %w", &soap.PayloadError{Err: io.EOF}), false},
		{"caller canceled", context.Canceled, false},
		{"wrapped canceled", fmt.Errorf("call: %w", context.Canceled), false},
		{"attempt timeout", context.DeadlineExceeded, true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("%s: Retryable = %v, want %v", tc.name, got, tc.want)
		}
	}
}
