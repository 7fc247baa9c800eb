package sim

import "time"

// Duration aliases time.Duration; virtual time in the kernel uses the same
// unit as wall-clock durations so values read naturally in configs and
// traces.
type Duration = time.Duration

// Seconds converts a floating-point number of seconds to a Duration,
// saturating instead of overflowing for absurdly large values.
func Seconds(s float64) Duration {
	const maxSec = float64(1<<63-1) / 1e9
	if s <= 0 {
		return 0
	}
	if s >= maxSec {
		return Duration(1<<63 - 1)
	}
	return Duration(s * 1e9)
}
