//go:build go1.23

package sim

import "math/rand"

// NewRNG returns a deterministic random source for the given seed.
// Components derive their own streams via SubRNG so that adding a new
// consumer of randomness does not perturb unrelated components.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SubRNG derives an independent stream from a parent seed and a component
// label, using a small FNV-style mix of the label.
func SubRNG(seed int64, label string) *rand.Rand {
	h := uint64(1469598103934665603)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewRNG(seed ^ int64(h))
}

// Jitter scales d by a uniform factor in [1-frac, 1+frac]. frac is clamped
// to [0, 0.95]. It models the run-to-run variation of real middleware
// (daemon boot, queue wait) without changing means.
func Jitter(rng *rand.Rand, d Duration, frac float64) Duration {
	if frac <= 0 || d <= 0 {
		return d
	}
	if frac > 0.95 {
		frac = 0.95
	}
	f := 1 + frac*(2*rng.Float64()-1)
	return Seconds(d.Seconds() * f)
}

// ExpDuration draws an exponentially distributed duration with the given
// mean, truncated at 20x the mean to keep simulations bounded.
func ExpDuration(rng *rand.Rand, mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	v := rng.ExpFloat64() * mean.Seconds()
	if max := 20 * mean.Seconds(); v > max {
		v = max
	}
	return Seconds(v)
}
