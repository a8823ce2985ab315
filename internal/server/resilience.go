package server

import (
	"time"

	"discovery/internal/obs"
	"discovery/internal/store"
)

// ResilienceConfig tunes the Retry layer the server wraps around
// Config.Store (capped exponential backoff + deterministic jitter). The
// zero value retries with serving defaults; RetryAttempts 1 uses the
// store bare. A store operation that still fails is a miss: the request
// recomputes, and the failure is counted and surfaced on /healthz.
type ResilienceConfig struct {
	// RetryAttempts is the total tries per store operation. Default 3.
	RetryAttempts int
	// RetryBase is the backoff before the first retry (doubling, capped
	// at 50× itself). Default 10ms.
	RetryBase time.Duration
}

// BrownoutConfig tunes admission brownout: under queue pressure the server
// progressively clamps per-request budgets — producing honest, explicitly
// degraded results — before it resorts to rejecting with 503. The zero
// value enables brownout with serving defaults.
type BrownoutConfig struct {
	// Disable turns brownout off: budgets are never pressure-clamped.
	Disable bool
	// Threshold is the queue occupancy (0..1] where clamping starts.
	// Default 0.75.
	Threshold float64
	// MinFraction is the budget fraction still granted at 100% occupancy
	// (the bottom of the clamp curve). Default 0.1.
	MinFraction float64
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.Threshold <= 0 || c.Threshold > 1 {
		c.Threshold = 0.75
	}
	if c.MinFraction <= 0 || c.MinFraction > 1 {
		c.MinFraction = 0.1
	}
	return c
}

// factor maps queue occupancy to a budget multiplier: 1 below the
// threshold, then linearly down to MinFraction at full occupancy. The
// curve is the degradation ladder's middle rung — between full service
// and 503 — and is deliberately monotone and continuous so budgets shrink
// smoothly as pressure builds instead of cliff-dropping.
func (c BrownoutConfig) factor(occupancy float64) float64 {
	if c.Disable || occupancy <= c.Threshold {
		return 1
	}
	if occupancy >= 1 {
		return c.MinFraction
	}
	span := 1 - c.Threshold
	return 1 - (occupancy-c.Threshold)/span*(1-c.MinFraction)
}

// retrySleep is the Retry layer's backoff sleep; tests replace it to
// count sleeps without waiting them out.
var retrySleep = time.Sleep

// storeGet looks key up in the result store. The store is a memo of a
// deterministic analysis, so an error is a miss: it is counted and
// flagged on /healthz, and the request recomputes.
func (s *Server) storeGet(key string) (*store.Entry, bool) {
	e, ok, err := s.st.Get(key)
	s.noteStore(err)
	return e, err == nil && ok
}

// storePut memoizes e, reporting whether it was stored.
func (s *Server) storePut(e *store.Entry) bool {
	err := s.st.Put(e)
	s.noteStore(err)
	return err == nil
}

// noteStore records one store operation's outcome after Retry:
// store_failing on /healthz follows the most recent operation, and
// failures count into /stats store_errors and the errors metric.
func (s *Server) noteStore(err error) {
	s.storeFailing.Store(err != nil)
	if err != nil {
		s.storeErrors.Add(1)
		s.reg.Count(obs.MetricServerStoreErrors, 1)
	}
}
