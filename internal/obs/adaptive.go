package obs

import (
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
)

// SLO-burn-adaptive head sampling. A fixed head-sampling rate trades
// visibility for overhead at build time; an incident is exactly when
// the trade is wrong. AdaptiveSampler keeps the deterministic
// hash-vs-threshold decision of Sampler but lets a controller ramp the
// rate (bounded, with hysteresis) while SLO burn fires and decay it
// back once resolved.
//
// Determinism guarantee: the per-request decision is still
// FNV-64a(request id) < threshold, computed once at the edge and
// propagated via the Traceparent sampled bit — so at any fixed rate
// the decision for a given request ID is deterministic across
// replicas, and because the hash is fixed and the threshold is
// monotone in the rate, *raising* the rate only ever adds traces: any
// request sampled at rate r is also sampled at every r' > r. Adaptive
// ramping therefore changes only how many traces are kept, never which
// bodies are produced (tracing rides in trailers/response fields) nor
// how a given request would have been decided at the same rate.

// HeadSampler is the sampling decision the tracing middlewares consult
// once per request at the edge. Sampler (static) and *AdaptiveSampler
// (SLO-burn-driven) both implement it.
type HeadSampler interface {
	// Sample decides whether the request with this ID is traced.
	Sample(id string) bool
	// Rate reports the current effective sampling rate in [0, 1].
	Rate() float64
}

// sampleThreshold maps a keep-fraction to the hash-space threshold.
func sampleThreshold(rate float64) uint64 {
	switch {
	case rate >= 1:
		return math.MaxUint64
	case rate <= 0:
		return 0
	default:
		return uint64(rate * float64(math.MaxUint64))
	}
}

// sampleHit is the shared deterministic decision: FNV-64a of the
// request ID against a threshold.
func sampleHit(id string, threshold uint64) bool {
	switch threshold {
	case math.MaxUint64:
		return true
	case 0:
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64() < threshold
}

// minRampRate is where an adaptive ramp starts when the base rate is
// zero (tracing off until an incident): 1/64 of requests, doubling
// from there.
const minRampRate = 1.0 / 64

// DefSamplerHysteresis is how many consecutive clear (non-burning)
// controller ticks must pass before an adaptive sampler starts
// decaying back toward its base rate.
const DefSamplerHysteresis = 3

// AdaptiveSampler is a HeadSampler whose rate moves between a base and
// a max under controller ticks: ×2 per burning tick (bounded by max),
// ÷2 per clear tick after the hysteresis period (floored at base).
// Sample is lock-free; Tick is called by one controller goroutine.
type AdaptiveSampler struct {
	base, max  float64
	hysteresis int

	threshold atomic.Uint64 // current decision threshold, read by Sample
	rateBits  atomic.Uint64 // float64 bits of the current rate, read by Rate

	mu    sync.Mutex // serializes Tick transitions
	clear int        // consecutive non-burning ticks
}

// NewAdaptiveSampler builds a sampler starting (and bottoming out) at
// base, ramping at most to max while burn fires. Rates clamp to
// [0, 1]; max below base means "never ramp" (a static sampler with
// rate gauge). hysteresis <= 0 selects DefSamplerHysteresis.
func NewAdaptiveSampler(base, max float64, hysteresis int) *AdaptiveSampler {
	base = clampRate(base)
	max = clampRate(max)
	if max < base {
		max = base
	}
	if hysteresis <= 0 {
		hysteresis = DefSamplerHysteresis
	}
	a := &AdaptiveSampler{base: base, max: max, hysteresis: hysteresis}
	a.setRate(base)
	return a
}

func clampRate(r float64) float64 {
	switch {
	case r < 0 || math.IsNaN(r):
		return 0
	case r > 1:
		return 1
	default:
		return r
	}
}

func (a *AdaptiveSampler) setRate(r float64) {
	a.rateBits.Store(math.Float64bits(r))
	a.threshold.Store(sampleThreshold(r))
}

// Sample decides whether the request with this ID is traced, at the
// rate current when the request arrives. One atomic load plus the
// shared hash: deterministic at any fixed rate, monotone in the rate.
func (a *AdaptiveSampler) Sample(id string) bool {
	return sampleHit(id, a.threshold.Load())
}

// Rate reports the current effective sampling rate.
func (a *AdaptiveSampler) Rate() float64 {
	return math.Float64frombits(a.rateBits.Load())
}

// Tick advances the control loop one step. burning is the multi-window
// SLO-burn signal (any relevant SLO firing). While burning the rate
// doubles each tick up to max (starting from minRampRate when the base
// is zero); each burning tick also resets the hysteresis countdown.
// Once burn clears, the rate holds for hysteresis ticks (so a flapping
// signal does not saw the rate), then halves each tick until it
// reaches the base again. Returns the rate in effect after the step.
func (a *AdaptiveSampler) Tick(burning bool) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	rate := a.Rate()
	if burning {
		a.clear = 0
		next := rate * 2
		if next < minRampRate {
			next = minRampRate
		}
		if next > a.max {
			next = a.max
		}
		if next > rate {
			a.setRate(next)
			rate = next
		}
		return rate
	}
	if rate <= a.base {
		a.clear = 0
		return rate
	}
	a.clear++
	if a.clear < a.hysteresis {
		return rate
	}
	next := rate / 2
	if next <= a.base || next < minRampRate/2 {
		next = a.base
	}
	a.setRate(next)
	return next
}
