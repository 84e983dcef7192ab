package soc

import (
	"reflect"
	"testing"
)

// runUnderKernel builds a SoC, runs src on core 0 (others halted) and
// settles the SDUs, mirroring runProgram. It uses Run and SettleSDU or,
// when ticked, the reference loop with the SDUs ticked cycle by cycle.
func runUnderKernel(t *testing.T, ticked bool, src string) *SoC {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadProgram(0x1000, src); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPageTable(0, s.IdentityPageTable(1)); err != nil {
		t.Fatal(err)
	}
	s.StartCore(0, 0x1000, 0x8000)
	for i := 1; i < len(s.Cores); i++ {
		s.Cores[i].Halted = true
	}
	if ticked {
		if _, err := s.RunReference(100000, nil, true); err != nil {
			t.Fatal(err)
		}
		settleSDUReference(s, 64)
		return s
	}
	if _, err := s.Run(100000, nil); err != nil {
		t.Fatal(err)
	}
	s.SettleSDU(64)
	return s
}

// compareSoCs checks everything the flight recorder and metrics snapshots
// are derived from: per-core clocks and registers, the SDU tick counters,
// and the full tick-stamped configuration event streams.
func compareSoCs(t *testing.T, tk, ev *SoC) {
	t.Helper()
	for i := range tk.Cores {
		if tk.Cores[i].Cycles != ev.Cores[i].Cycles {
			t.Errorf("core %d cycles: ticked %d, events %d",
				i, tk.Cores[i].Cycles, ev.Cores[i].Cycles)
		}
	}
	if tk.Cores[0].Regs != ev.Cores[0].Regs {
		t.Error("core 0 register files diverged")
	}
	for i := range tk.Clusters {
		a, b := tk.Clusters[i].L15, ev.Clusters[i].L15
		if a.Ticks() != b.Ticks() {
			t.Errorf("cluster %d SDU ticks: ticked %d, events %d", i, a.Ticks(), b.Ticks())
		}
		if !reflect.DeepEqual(a.Events, b.Events) {
			t.Errorf("cluster %d config events diverged:\nticked %+v\nevents %+v",
				i, a.Events, b.Events)
		}
		if !reflect.DeepEqual(a.Stats, b.Stats) {
			t.Errorf("cluster %d L1.5 stats diverged:\n%+v\n%+v", i, a.Stats, b.Stats)
		}
	}
}

// The SDU-heavy path: demand, poll supply, publish with gv_set. Run skips
// the idle SDU stretches between the Walloc grants; every tick-stamped
// event must still match the ticked reference.
func TestKernelsAgreeOnDemandProgram(t *testing.T) {
	src := `
		li a0, 4
		demand a0
	wait:
		supply a1
		beqz a1, wait
		gv_set a1
		li a0, 1
		demand a0
		nop
		nop
		ebreak
	`
	tk := runUnderKernel(t, true, src)
	ev := runUnderKernel(t, false, src)
	compareSoCs(t, tk, ev)
	if len(ev.Clusters[0].L15.Events) == 0 {
		t.Fatal("program produced no SDU events; test is vacuous")
	}
}

// The no-SDU path: a pure cache-hit loop never wakes the Walloc, so Run
// skips every SDU cycle of the run. The clocks must still
// settle to identical values.
func TestKernelsAgreeOnPureHitLoop(t *testing.T) {
	src := `
		li s0, 0x4000
		li t0, 0
		li t1, 2048
	loop:
		add t2, s0, t0
		lw t3, 0(t2)
		addi t0, t0, 64
		bne t0, t1, loop
		ebreak
	`
	tk := runUnderKernel(t, true, src)
	ev := runUnderKernel(t, false, src)
	compareSoCs(t, tk, ev)
	if len(ev.Clusters[0].L15.Events) != 0 {
		t.Fatalf("hit loop produced SDU events: %+v", ev.Clusters[0].L15.Events)
	}
	if ev.Clusters[0].L15.Ticks() == 0 {
		t.Fatal("SDU clock never advanced; skip path untested")
	}
}
