// Package kernel defines the wakeup protocol shared by the cycle-accurate
// SoC and the continuous-time drivers (DESIGN.md §11).
//
// A simulated unit that consumes clock cycles implements the wakeup
// protocol: it reports the next cycle at which ticking it would change
// state (a miss completing, the Walloc FSM moving a way, a task release).
// When every unit reports Never, the simulator jumps the clock directly to
// the earliest external wakeup instead of idling through no-op ticks. The
// jump lands on the same counter values a cycle-by-cycle loop would reach;
// each simulator's tests hold it to such a loop, kept as a test-side
// reference.
package kernel

import "fmt"

// Mode names the simulator kernel. Events, the time-skipping kernel, is
// the only one.
//
// Deprecated: nothing selects a kernel. Mode remains only for the two
// deprecated Kernel fields (schedsim.Options and experiments.MakespanConfig)
// that the perfbench module still names, and goes with them.
type Mode uint8

// Events is the event-driven time-skipping kernel: when no unit is
// runnable the clock jumps to the minimum reported wakeup.
const Events Mode = 0

// String returns the name of the mode.
func (m Mode) String() string {
	if m == Events {
		return "events"
	}
	return fmt.Sprintf("kernel.Mode(%d)", uint8(m))
}

// Never is the wakeup a unit reports when no future tick can change its
// state without an intervening external call. A unit reporting Never may
// be skipped to any future cycle.
const Never = ^uint64(0)

// Waker is one clock-consuming unit of the wakeup protocol.
type Waker interface {
	// NextWakeup returns the earliest cycle at which ticking the unit
	// would change state, or Never when the unit is idle.
	NextWakeup() uint64
}

// Earliest returns the minimum of the given wakeups (Never when the list
// is empty or all-idle) — the cycle the events kernel jumps to.
func Earliest(wakeups ...uint64) uint64 {
	min := uint64(Never)
	for _, w := range wakeups {
		if w < min {
			min = w
		}
	}
	return min
}
