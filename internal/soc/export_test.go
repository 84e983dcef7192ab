package soc

import (
	"l15cache/internal/cpu"
	"l15cache/internal/kernel"
)

// RunReference is the run loop Run replaced, kept as the oracle for
// oracle_test.go: every step it re-reads each core's NextWakeup to pick the
// next core, then rescans every core's clock for the global time the SDUs
// advance to. With ticked set the SDUs get there one Tick at a time, as
// the cycle-by-cycle kernel did, instead of through AdvanceTo's jump.
func (s *SoC) RunReference(maxInstrs uint64, handler func(*cpu.Core, cpu.Trap) bool, ticked bool) (cpu.Trap, error) {
	retired := make([]uint64, len(s.Cores))
	for {
		best := -1
		bestWake := kernel.Never
		for i, c := range s.Cores {
			if retired[i] >= maxInstrs {
				continue
			}
			if w := c.NextWakeup(); w < bestWake {
				best, bestWake = i, w
			}
		}
		if best < 0 {
			return cpu.Trap{}, nil
		}
		c := s.Cores[best]
		trap, err := c.StepIssue()
		if err != nil {
			return trap, err
		}
		retired[best]++
		if global := referenceGlobal(s); ticked {
			tickSDUsReference(s, global)
		} else {
			s.tickSDUs(global)
		}
		if s.Observer != nil {
			s.Observer(s)
		}
		switch trap.Kind {
		case cpu.TrapNone:
		case cpu.TrapEBreak:
		case cpu.TrapECall:
			if handler == nil || !handler(c, trap) {
				c.Halted = true
				return trap, nil
			}
		default:
			return trap, nil
		}
	}
}

// referenceGlobal is the reference loop's global time: the minimum clock
// over the running cores, or the maximum once all have halted.
func referenceGlobal(s *SoC) uint64 {
	var global uint64
	first := true
	for _, c := range s.Cores {
		if c.Halted {
			continue
		}
		if first || c.Cycles < global {
			global = c.Cycles
			first = false
		}
	}
	if first {
		for _, c := range s.Cores {
			if c.Cycles > global {
				global = c.Cycles
			}
		}
	}
	return global
}

// tickSDUsReference advances every cluster's SDU to global cycle by cycle.
func tickSDUsReference(s *SoC, global uint64) {
	for _, cl := range s.Clusters {
		for cl.L15.Ticks() < global {
			cl.L15.Tick()
		}
	}
}

// settleSDUReference is SettleSDU cycle by cycle: n Ticks per cluster.
func settleSDUReference(s *SoC, n int) {
	for _, cl := range s.Clusters {
		for i := 0; i < n; i++ {
			cl.L15.Tick()
		}
	}
}
