// Package reliable is the fault-tolerance subsystem of the exchange path.
// The paper ships large XML volumes over a wide-area link (its 25 MB
// publish&map transfer ran at ~160 KB/s for 158.65 s); at that scale a
// transfer that aborts on any mid-stream error and restarts from byte zero
// is unusable. This package supplies the three pieces the exchange layers
// plug together:
//
//   - a retry policy engine (Policy/Retrier): exponential backoff with
//     full jitter, per-attempt timeouts, a whole-exchange deadline, and a
//     retry budget;
//   - per-endpoint circuit breakers (Breaker/BreakerSet) with the classic
//     closed/open/half-open lifecycle, shared by the exchanges of one
//     caller;
//   - resumable shipment sessions (SessionStore/Ledger): the target acks
//     per-chunk checkpoints, so a reconnecting source resumes from the
//     last acked chunk and a chunk replayed below it is declined.
//
// The soap, wire, endpoint, and registry layers wire these together; see
// registry.ExecOptions.Reliability.
package reliable

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"xdx/internal/soap"
)

// Config is an exchange's reliability policy. The zero value of every
// field selects a sane default, so &Config{} retries as-is.
type Config struct {
	// Policy is the retry/backoff/deadline policy; each exchange runs its
	// calls on one Retrier built from it.
	Policy Policy
	// Breaker tunes the breakers of a set its owner builds with
	// NewBreakerSet(cfg.Breaker). The drive never reads it: only
	// Breakers is consulted.
	Breaker BreakerConfig
	// Breakers, when set, is the caller's per-endpoint circuit breakers,
	// shared across its exchanges (e.g. one set per agency). Nil means no
	// breaker: MaxAttempts, Budget and Deadline are the only caps.
	Breakers *BreakerSet
	// ChunkSize is the resume granularity: records per shipment chunk.
	// Default 64.
	ChunkSize int
	// Seed drives backoff jitter and session ID minting; equal seeds give
	// reproducible behaviour (fault-injection tests depend on it). Zero is
	// a valid seed.
	Seed int64
	// Transport, when set, is installed into every SOAP client the
	// exchange makes — the hook netsim.FaultyLink.RoundTripper plugs into,
	// also usable for instrumentation or custom dialing.
	Transport http.RoundTripper
}

// Policy tunes the retry engine. The zero value of each field selects the
// documented default, so Policy{} is a usable production policy.
type Policy struct {
	// MaxAttempts bounds tries per call (first attempt included).
	// Default 4.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; attempt n waits a
	// uniformly random duration in [0, min(MaxDelay, BaseDelay*2^n)] —
	// exponential backoff with full jitter. Default 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff window. Default 2s.
	MaxDelay time.Duration
	// AttemptTimeout bounds one SOAP call, body included (it becomes
	// soap.Client.Timeout). Zero keeps soap.DefaultTimeout.
	AttemptTimeout time.Duration
	// Deadline bounds the whole exchange: once exceeded, no further retry
	// is scheduled (the in-flight attempt still finishes). Zero = none.
	Deadline time.Duration
	// Budget caps total retries across all calls of one exchange, so a
	// flapping link cannot multiply MaxAttempts across every hop.
	// Default 16.
	Budget int
}

// withDefaults resolves zero fields to the documented defaults.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Budget <= 0 {
		p.Budget = 16
	}
	return p
}

// ErrBudgetExhausted reports that an exchange spent its whole retry
// budget; the last attempt's error is wrapped alongside it.
var ErrBudgetExhausted = errors.New("reliable: retry budget exhausted")

// ErrDeadline reports that the exchange deadline passed while a retry was
// still warranted.
var ErrDeadline = errors.New("reliable: exchange deadline exceeded")

// Retrier runs attempts under one exchange's policy, sharing the retry
// budget and deadline across every call it drives. It is safe for
// concurrent use.
type Retrier struct {
	p Policy

	// OnRetry, when set, observes every scheduled retry just before its
	// backoff sleep: the operation name, the 0-based try that failed, the
	// chosen delay, and the error that warranted the retry. Set it before
	// the retrier runs; it must be safe for concurrent use.
	OnRetry func(op string, try int, delay time.Duration, err error)

	mu      sync.Mutex
	seed    int64
	rng     *rand.Rand // seeded by the first backoff: a clean exchange draws none
	start   time.Time
	retries int

	// sleep and now are swappable for tests.
	sleep func(time.Duration)
	now   func() time.Time
}

// NewRetrier starts an exchange clock with the given policy. The seed
// drives jitter; equal seeds give equal backoff sequences.
func NewRetrier(p Policy, seed int64) *Retrier {
	r := &Retrier{
		p:     p.withDefaults(),
		seed:  seed,
		sleep: time.Sleep,
		now:   time.Now,
	}
	r.start = r.now()
	return r
}

// Retries returns how many retries (attempts beyond each first) ran so
// far across all calls.
func (r *Retrier) Retries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

// backoff draws the full-jitter delay before retry number n (0-based).
func (r *Retrier) backoff(n int) time.Duration {
	ceil := r.p.BaseDelay << uint(n)
	if ceil > r.p.MaxDelay || ceil <= 0 {
		ceil = r.p.MaxDelay
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.seed))
	}
	return time.Duration(r.rng.Int63n(int64(ceil) + 1))
}

// Do runs attempt until it succeeds, returns a non-retryable error, or the
// policy (attempts, budget, deadline) or breaker cuts it off. The breaker
// may be nil. attempt receives the 0-based try number.
func (r *Retrier) Do(op string, br *Breaker, attempt func(try int) error) error {
	for try := 0; ; try++ {
		if br != nil {
			if err := br.Allow(); err != nil {
				return fmt.Errorf("reliable: %s: %w", op, err)
			}
		}
		err := attempt(try)
		if br != nil {
			br.Record(err)
		}
		if err == nil {
			return nil
		}
		if !Retryable(err) {
			return err
		}
		if try+1 >= r.p.MaxAttempts {
			return fmt.Errorf("reliable: %s failed after %d attempts: %w", op, try+1, err)
		}
		r.mu.Lock()
		budgetLeft := r.retries < r.p.Budget
		if budgetLeft {
			r.retries++
		}
		deadlineOK := r.p.Deadline <= 0 || r.now().Sub(r.start) < r.p.Deadline
		r.mu.Unlock()
		if !budgetLeft {
			return fmt.Errorf("%w: %s: %w", ErrBudgetExhausted, op, err)
		}
		if !deadlineOK {
			return fmt.Errorf("%w: %s: %w", ErrDeadline, op, err)
		}
		delay := r.backoff(try)
		if r.OnRetry != nil {
			r.OnRetry(op, try, delay, err)
		}
		r.sleep(delay)
	}
}

// Permanent wraps err so Retryable classifies it as non-retryable.
// Protocol and decode failures from this codebase repeat identically on
// every attempt; marking them permanent fails the exchange fast instead
// of burning the backoff budget and tripping the endpoint's breaker on
// an error no retry can fix. Permanent(nil) is nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

// permanentError is the marker Permanent attaches; errors.As unwraps
// through fmt.Errorf chains to find it.
type permanentError struct{ err error }

// Error implements error.
func (e *permanentError) Error() string { return e.err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *permanentError) Unwrap() error { return e.err }

// Retryable classifies an error as transient. Transport-level failures
// (connection drops, truncated streams, attempt timeouts — anything that
// is not a SOAP fault) are retryable; SOAP faults are retryable only when
// they are really HTTP-level outages: 502/503/504, or any 5xx that did
// not come with a well-formed fault body (soap:HTTP — e.g. a proxy error
// page). A 5xx carrying a proper soap:Server fault is an application
// error and retrying would just repeat it. Likewise non-retryable:
// errors marked Permanent, payload decode rejections (soap.PayloadError —
// the response arrived intact and was refused), and context.Canceled (the
// caller gave up; context.DeadlineExceeded stays retryable, it is how a
// stalled attempt's timeout surfaces).
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var pe *permanentError
	if errors.As(err, &pe) {
		return false
	}
	var de *soap.PayloadError
	if errors.As(err, &de) {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	var f *soap.Fault
	if errors.As(err, &f) {
		switch f.HTTPStatus {
		case 502, 503, 504:
			return true
		}
		if f.Code == "soap:HTTP" && f.HTTPStatus >= 500 {
			return true
		}
		return false
	}
	if errors.Is(err, ErrOpen) {
		return false
	}
	return true
}
