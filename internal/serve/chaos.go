package serve

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ChaosConfig arms deterministic infrastructure-fault injection inside a
// Server — the service-layer extension of the internal/faults idea: where
// a faults.Scenario derates pumps and condensers, chaos derates the
// *service* (latency, panics, sabotaged solvers, failed solves). Every
// decision is drawn from one seeded PRNG, so a chaos run replays the
// same fault sequence for the same seed; the chaos test leans on that to
// assert invariants (bounded error rates, byte-deterministic successes,
// clean drains) instead of eyeballing flakes.
//
// Chaos is a test/drill facility: it is armed through Server.SetChaos,
// never through configuration or an endpoint.
type ChaosConfig struct {
	// Seed fixes the PRNG (0 is a valid, fixed seed).
	Seed int64
	// LatencyRate is the probability a request sleeps a uniform random
	// duration up to MaxLatency before being handled.
	LatencyRate float64
	MaxLatency  time.Duration
	// PanicRate is the probability a request panics mid-handler — the
	// recovery middleware must turn it into a structured 500.
	PanicRate float64
	// SabotageRate is the probability a steady solve runs with the
	// multigrid fault hook armed (cosim.Session.InjectMGFault): the
	// escalation ladder rescues the solve, and the breaker sees the storm.
	SabotageRate float64
	// FailRate is the probability a steady solve fails outright with an
	// injected solver error (counted by the breaker).
	FailRate float64
}

// errChaosFail is the injected hard solver failure.
var errChaosFail = errors.New("serve: chaos-injected solve failure")

// chaos is the armed injector. All rolls serialize through mu: the draw
// *sequence* is deterministic in the seed even though which request gets
// which draw depends on goroutine interleaving.
type chaos struct {
	mu  sync.Mutex
	rng *rand.Rand
	cfg ChaosConfig
}

// SetChaos arms fault injection (nil disarms). Safe to call on a live
// server; in-flight requests finish under the previous regime.
func (s *Server) SetChaos(cfg *ChaosConfig) {
	s.chaosMu.Lock()
	defer s.chaosMu.Unlock()
	if cfg == nil {
		s.chaos = nil
		return
	}
	s.chaos = &chaos{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: *cfg}
}

// loadChaos returns the armed injector, or nil.
func (s *Server) loadChaos() *chaos {
	s.chaosMu.Lock()
	defer s.chaosMu.Unlock()
	return s.chaos
}

// roll draws one Bernoulli decision.
func (c *chaos) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64() < rate
}

// latency draws an injected handler delay (0 = none this time).
func (c *chaos) latency() time.Duration {
	if c.cfg.LatencyRate <= 0 || c.cfg.MaxLatency <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Float64() >= c.cfg.LatencyRate {
		return 0
	}
	return time.Duration(c.rng.Int63n(int64(c.cfg.MaxLatency)))
}
