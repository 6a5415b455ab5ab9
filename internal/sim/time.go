// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel schedules a set of cooperative processes (Proc), each a
// coroutine of the goroutine that calls Run: that goroutine alone runs the
// event loop and fires callbacks, resumes a process when an event makes it
// runnable, and gets control back when the process parks or returns. Network
// models, storage models, and the MPI layer are built on top of this kernel,
// so the whole simulation is deterministic and data-race-free without locks.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. It is also used for durations.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with adaptive units.
func (t Time) String() string {
	switch {
	case t < 0:
		if t == math.MinInt64 {
			// -t overflows back to t; one nanosecond nearer zero negates
			// safely and prints the same six significant digits.
			t++
		}
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6gs", t.Seconds())
	}
}

// Backoff returns base doubled n times, capped at limit: the delay before
// the n-th retry of a capped exponential backoff (n = 0 is the first).
func Backoff(base Time, n int, limit Time) Time {
	d := base
	for ; n > 0 && d < limit; n-- {
		d *= 2
	}
	return min(d, limit)
}
