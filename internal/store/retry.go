package store

import (
	"errors"
	"sync"
	"time"
)

// RetryConfig tunes the Retry decorator. The zero value is usable: every
// field has a serving-appropriate default applied by NewRetry.
type RetryConfig struct {
	// Attempts is the total tries per operation, first included. Default 3.
	Attempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it, capped at 50× BaseDelay. Default 10ms.
	BaseDelay time.Duration
	// OnRetry observes each retry (op is "get", "put", or "len") before
	// its backoff sleep; the server wires it to a counter.
	OnRetry func(op string, attempt int, err error)
	// Sleep stands in for time.Sleep in tests. The function receives the
	// jittered delay.
	Sleep func(d time.Duration)
}

// jitterSeed seeds every Retry's jitter stream, so two Retry stores that
// see the same failure pattern sleep the same schedule.
const jitterSeed = 1

func (c RetryConfig) withDefaults() RetryConfig {
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 10 * time.Millisecond
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// retryable is the retry predicate: permanent contract failures
// (ErrInvalid) and terminal states (ErrClosed) are not retried;
// everything else — transient-typed errors and unclassified I/O errors
// alike — is.
func retryable(err error) bool {
	return !errors.Is(err, ErrInvalid) && !errors.Is(err, ErrClosed)
}

// Retry decorates a Store with bounded retries under capped exponential
// backoff with deterministic jitter. It makes the backend's transient
// failures — a flaky disk, an injected fault, a latency blip — invisible
// to callers as long as they pass within the attempt budget; persistent
// failures surface after the last attempt, typed as the backend returned
// them. The store is a memo, so the caller treats that error as a miss.
type Retry struct {
	inner Store
	cfg   RetryConfig

	mu      sync.Mutex
	rng     uint64 // splitmix64 state for jitter
	retries int64
}

// NewRetry wraps inner in a Retry decorator.
func NewRetry(inner Store, cfg RetryConfig) *Retry {
	return &Retry{inner: inner, cfg: cfg.withDefaults(), rng: jitterSeed}
}

// Retries returns the total retry attempts performed (not counting each
// operation's first try).
func (r *Retry) Retries() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

// jitter returns a deterministic pseudo-random duration in [d/2, d): full
// backoff magnitude, half of it jittered, so concurrent retriers spread
// out instead of thundering in phase.
func (r *Retry) jitter(d time.Duration) time.Duration {
	r.mu.Lock()
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	r.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	half := uint64(d / 2)
	if half == 0 {
		return d
	}
	return time.Duration(half + z%half)
}

// do runs op with retries. attempt is 1-based; after a retryable failure
// that is not the last attempt, it sleeps min(50×BaseDelay, BaseDelay<<n)
// with jitter.
func (r *Retry) do(op string, fn func() error) error {
	maxDelay := 50 * r.cfg.BaseDelay
	delay := r.cfg.BaseDelay
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil || attempt >= r.cfg.Attempts || !retryable(err) {
			return err
		}
		r.mu.Lock()
		r.retries++
		r.mu.Unlock()
		if r.cfg.OnRetry != nil {
			r.cfg.OnRetry(op, attempt, err)
		}
		r.cfg.Sleep(r.jitter(delay))
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}

// Get implements Store.
func (r *Retry) Get(key string) (e *Entry, ok bool, err error) {
	err = r.do("get", func() error {
		var ierr error
		e, ok, ierr = r.inner.Get(key)
		return ierr
	})
	return e, ok, err
}

// Put implements Store.
func (r *Retry) Put(e *Entry) error {
	return r.do("put", func() error { return r.inner.Put(e) })
}

// Len implements Store.
func (r *Retry) Len() (n int, err error) {
	err = r.do("len", func() error {
		var ierr error
		n, ierr = r.inner.Len()
		return ierr
	})
	return n, err
}

// Close implements Store, closing the wrapped backend (no retries: Close
// is terminal either way).
func (r *Retry) Close() error { return r.inner.Close() }
