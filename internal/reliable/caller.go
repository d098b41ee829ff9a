package reliable

import (
	"net/http"

	"xdx/internal/soap"
)

// Config switches an exchange onto the reliable path and tunes it. The
// zero value of every field selects a sane default, so &Config{} enables
// reliability as-is.
type Config struct {
	// Policy is the retry/backoff/deadline policy.
	Policy Policy
	// Breaker tunes the per-endpoint circuit breakers minted by this
	// config (ignored when Breakers is set).
	Breaker BreakerConfig
	// Breakers, when set, shares breaker state across exchanges (e.g. one
	// set per agency). Nil mints a private set per exchange.
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

// Exchange is the per-exchange engine the registry drives calls through:
// one retrier (shared budget and deadline), breakers per endpoint, and the
// HTTP client carrying the configured transport.
type Exchange struct {
	cfg      *Config
	retrier  *Retrier
	breakers *BreakerSet
	hc       *http.Client
	id       string
}

// NewExchange prepares the reliability state for one exchange.
func NewExchange(cfg *Config) *Exchange {
	if cfg == nil {
		cfg = &Config{}
	}
	breakers := cfg.Breakers
	if breakers == nil {
		breakers = NewBreakerSet(cfg.Breaker)
	}
	var hc *http.Client
	if cfg.Transport != nil {
		hc = &http.Client{Transport: cfg.Transport}
	}
	return &Exchange{
		cfg:      cfg,
		retrier:  NewRetrier(cfg.Policy, cfg.Seed),
		breakers: breakers,
		hc:       hc,
		id:       mintID("e", cfg.Seed),
	}
}

// ID is the exchange id: minted once per exchange, it rides on every call
// the exchange makes and on the source's call to the target, so every log
// line of the exchange on every process carries it.
func (e *Exchange) ID() string { return e.id }

// Client builds a SOAP client for url under this exchange's transport and
// per-attempt timeout, carrying the exchange id on every call.
func (e *Exchange) Client(url string) *soap.Client {
	return &soap.Client{URL: url, HTTPClient: e.hc, Timeout: e.cfg.Policy.AttemptTimeout, Exchange: e.id}
}

// Do runs one logical call against the endpoint at url with retries and
// its circuit breaker. attempt receives the 0-based try number.
func (e *Exchange) Do(op, url string, attempt func(try int) error) error {
	return e.retrier.Do(op, e.breakers.For(url), attempt)
}

// Retries reports retries spent so far across the exchange.
func (e *Exchange) Retries() int { return e.retrier.Retries() }

// Retrier exposes the exchange's retry engine so callers can register
// observability hooks (Retrier.OnRetry) before driving calls.
func (e *Exchange) Retrier() *Retrier { return e.retrier }

// Breakers exposes the exchange's breaker set (the configured shared set,
// or the private one minted for this exchange) for hook registration and
// state export.
func (e *Exchange) Breakers() *BreakerSet { return e.breakers }

// SharedBreakers reports whether the breaker set came from the config
// (shared across exchanges) rather than being minted privately — shared
// sets should be wired for observability once by their owner, not per
// exchange.
func (e *Exchange) SharedBreakers() bool { return e.cfg.Breakers != nil }

// ChunkSize resolves the configured resume granularity.
func (e *Exchange) ChunkSize() int {
	if e.cfg.ChunkSize > 0 {
		return e.cfg.ChunkSize
	}
	return 64
}

// SessionID mints a session identifier under this exchange's seed.
func (e *Exchange) SessionID() string { return NewSessionID(e.cfg.Seed) }
