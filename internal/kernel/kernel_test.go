package kernel

import "testing"

func TestZeroValueIsEvents(t *testing.T) {
	// The deprecated Kernel fields are never set: their zero value must
	// name the one kernel, and fingerprint as "events".
	var m Mode
	if m != Events {
		t.Errorf("zero Mode = %v, want Events", m)
	}
	if s := m.String(); s != "events" {
		t.Errorf("zero Mode spells %q, want events", s)
	}
	if s := Mode(7).String(); s != "kernel.Mode(7)" {
		t.Errorf("Mode(7).String() = %q", s)
	}
}

func TestEarliest(t *testing.T) {
	if got := Earliest(); got != Never {
		t.Errorf("Earliest() = %d, want Never", got)
	}
	if got := Earliest(Never, Never); got != Never {
		t.Errorf("Earliest(Never, Never) = %d, want Never", got)
	}
	if got := Earliest(Never, 42, 7, Never, 9); got != 7 {
		t.Errorf("Earliest = %d, want 7", got)
	}
	if got := Earliest(0, Never); got != 0 {
		t.Errorf("Earliest with zero wakeup = %d, want 0", got)
	}
}
