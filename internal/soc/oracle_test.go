package soc_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"l15cache/internal/cpu"
	"l15cache/internal/kernel"
	"l15cache/internal/monitor"
	"l15cache/internal/soc"
)

// Service numbers the oracle programs pass in a7 with ecall.
const (
	svcRestart = 1 // restart the parked core 7
	svcStop    = 2 // end the run
)

// progBase is core i's program address.
func progBase(core int) uint32 { return 0x1000 + uint32(core)*0x800 }

// worker is core's program: demand two L1.5 ways and publish them, walk a
// private buffer n words long, print a tag to the UART, release the ways
// and end with tail (ebreak, or an ecall service).
func worker(core, n int, head, tail string) string {
	return fmt.Sprintf(`
		%s
		li a0, 2
		demand a0
	wait:
		supply a1
		beqz a1, wait
		gv_set a1
		li s0, %d
		li t0, %d
	loop:
		lw t1, 0(s0)
		addi t1, t1, %d
		sw t1, 0(s0)
		addi s0, s0, 4
		addi t0, t0, -1
		bnez t0, loop
		li t2, 0x00ff0000
		li t3, %d
		sb t3, 0(t2)
		li a0, 0
		demand a0
		%s
	`, head, 0x40000+core*0x1000, n, core+1, 'A'+core, tail)
}

// oracleCase is one scenario the new run loop must replay exactly.
type oracleCase struct {
	name      string
	kernel    kernel.Mode
	width     int
	maxInstrs uint64
	monitor   bool
	// observer, when set, is attached as the SoC's Observer.
	observer func(s *soc.SoC) func(*soc.SoC)
	// program returns core's source; parked cores start halted.
	program func(core int) (src string, parked bool)
	// handler builds the ECALL handler for one SoC (nil: none).
	handler func(s *soc.SoC) func(*cpu.Core, cpu.Trap) bool
	// reaches is the situation the case exists for; checkReaches fails
	// the case when the reference run does not get there.
	reaches string
}

// The situations an oracle case must reach.
const (
	allHalted  = "every core halted"
	someCapped = "some cores capped, some halted"
	restarted  = "parked core 7 restarted"
	stopped    = "run ended by the handler"
)

func plainWorkers(core int) (string, bool) { return worker(core, 20+15*core, "", "ebreak"), false }

// restartWorkers parks core 7; core 0 restarts it through an ecall.
func restartWorkers(core int) (string, bool) {
	switch core {
	case 0:
		return worker(core, 20, fmt.Sprintf("li a7, %d\necall", svcRestart), "ebreak"), false
	case 7:
		return worker(core, 30, "", "ebreak"), true
	}
	return plainWorkers(core)
}

// cappedWorkers run into a cap of capLimit instructions at very different
// clocks: odd cores spin cheaply and are capped early, even cores first
// walk cold lines and reach their demand long after the odd cores' caps,
// while the global time is held back at the capped clocks. Core 0 halts
// before its cap.
func cappedWorkers(core int) (string, bool) {
	switch {
	case core == 0:
		return worker(core, 10, "", "ebreak"), false
	case core%2 == 1:
		return worker(core, 20, "li t4, 200\nspin: addi t4, t4, -1\nbnez t4, spin", "ebreak"), false
	}
	burn := fmt.Sprintf("li s1, %d\nli t4, 40\nburn: lw t5, 0(s1)\naddi s1, s1, 64\naddi t4, t4, -1\nbnez t4, burn", 0x100000+core*0x10000)
	return worker(core, 20, burn, "ebreak"), false
}

const capLimit = 300

// parkedWorkers park core 7 for an Observer to restart.
func parkedWorkers(core int) (string, bool) {
	src, _ := plainWorkers(core)
	return src, core == 7
}

// stopWorkers end the run from core 2's closing ecall.
func stopWorkers(core int) (string, bool) {
	if core == 2 {
		return worker(core, 40, "", fmt.Sprintf("li a7, %d\necall\nebreak", svcStop)), false
	}
	return worker(core, 60+15*core, "", "ebreak"), false
}

func serviceHandler(s *soc.SoC) func(*cpu.Core, cpu.Trap) bool {
	return func(c *cpu.Core, _ cpu.Trap) bool {
		switch c.Regs[17] {
		case svcRestart:
			s.StartCore(7, progBase(7), 0x80000)
		case svcStop:
			return false
		}
		return true
	}
}

// restartObserver restarts the parked core 7 from the Observer once core
// 0's clock passes 400 cycles: an Observer may change any core.
func restartObserver(*soc.SoC) func(*soc.SoC) {
	done := false
	return func(s *soc.SoC) {
		if !done && s.Cores[0].Cycles > 400 {
			s.StartCore(7, progBase(7), 0x80000)
			done = true
		}
	}
}

// oracleRun builds the case's SoC, runs it with run and returns the SoC,
// the attached monitor (nil without one) and Run's results.
func oracleRun(t *testing.T, c oracleCase, reference bool) (*soc.SoC, *monitor.Monitor, cpu.Trap, error) {
	t.Helper()
	cfg := soc.DefaultConfig()
	cfg.Kernel = c.kernel
	cfg.IssueWidth, cfg.MemPorts = c.width, c.width
	s, err := soc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Cores {
		src, parked := c.program(i)
		if _, err := s.LoadProgram(progBase(i), src); err != nil {
			t.Fatal(err)
		}
		// Cores of one cluster share an address space, so published
		// ways give global hits.
		if err := s.SetPageTable(i, s.IdentityPageTable(uint16(1+i/cfg.ClusterSize))); err != nil {
			t.Fatal(err)
		}
		s.StartCore(i, progBase(i), 0x80000)
		s.Cores[i].Halted = parked
	}
	var m *monitor.Monitor
	if c.monitor {
		if m, err = monitor.Attach(s, 16); err != nil {
			t.Fatal(err)
		}
	}
	if c.observer != nil {
		s.Observer = c.observer(s)
	}
	var handler func(*cpu.Core, cpu.Trap) bool
	if c.handler != nil {
		handler = c.handler(s)
	}
	run := s.Run
	if reference {
		run = s.RunReference
	}
	trap, err := run(c.maxInstrs, handler)
	return s, m, trap, err
}

// TestRunMatchesReference holds Run to the two-scan reference loop: every
// per-core clock, register file and statistic, the UART, the SDU clocks
// and the tick-stamped L1.5 events must be identical.
func TestRunMatchesReference(t *testing.T) {
	const unbounded = 1 << 40
	cases := []oracleCase{
		{name: "all-halt", maxInstrs: unbounded, program: plainWorkers, reaches: allHalted},
		{name: "capped", maxInstrs: capLimit, program: cappedWorkers, reaches: someCapped},
		{name: "ecall-restart", maxInstrs: unbounded, program: restartWorkers, handler: serviceHandler, reaches: restarted},
		{name: "ecall-stop", maxInstrs: unbounded, program: stopWorkers, handler: serviceHandler, reaches: stopped},
		{name: "monitor", maxInstrs: unbounded, program: restartWorkers, handler: serviceHandler, monitor: true, reaches: restarted},
		{name: "observer-restart", maxInstrs: unbounded, program: parkedWorkers, observer: restartObserver, reaches: restarted},
		{name: "capped-monitor", maxInstrs: capLimit, program: cappedWorkers, monitor: true, reaches: someCapped},
		{name: "dual-issue", maxInstrs: unbounded, width: 2, program: plainWorkers, reaches: allHalted},
	}
	for _, c := range cases {
		for _, mode := range []kernel.Mode{kernel.Events, kernel.Ticked} {
			c := c
			c.kernel = mode
			t.Run(fmt.Sprintf("%s/%v", c.name, mode), func(t *testing.T) {
				got, gotMon, gotTrap, gotErr := oracleRun(t, c, false)
				want, wantMon, wantTrap, wantErr := oracleRun(t, c, true)
				if gotTrap != wantTrap || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("Run returned (%+v, %v), reference (%+v, %v)", gotTrap, gotErr, wantTrap, wantErr)
				}
				compareSystems(t, got, want)
				if c.monitor && !reflect.DeepEqual(gotMon.Samples, wantMon.Samples) {
					t.Errorf("monitor samples diverged: %d vs %d", len(gotMon.Samples), len(wantMon.Samples))
				}
				checkReaches(t, c, want, wantTrap)
			})
		}
	}
}

func compareSystems(t *testing.T, got, want *soc.SoC) {
	t.Helper()
	for i := range got.Cores {
		a, b := got.Cores[i], want.Cores[i]
		if a.Cycles != b.Cycles || a.PC != b.PC || a.Halted != b.Halted {
			t.Errorf("core %d: cycles/pc/halted %d/%#x/%v, reference %d/%#x/%v",
				i, a.Cycles, a.PC, a.Halted, b.Cycles, b.PC, b.Halted)
		}
		if a.Regs != b.Regs {
			t.Errorf("core %d register files diverged", i)
		}
		if a.Stats != b.Stats {
			t.Errorf("core %d stats %+v, reference %+v", i, a.Stats, b.Stats)
		}
	}
	if !bytes.Equal(got.UART, want.UART) {
		t.Errorf("UART %q, reference %q", got.UART, want.UART)
	}
	for i := range got.Clusters {
		a, b := got.Clusters[i].L15, want.Clusters[i].L15
		if a.Ticks() != b.Ticks() {
			t.Errorf("cluster %d SDU ticks %d, reference %d", i, a.Ticks(), b.Ticks())
		}
		if !reflect.DeepEqual(a.Events, b.Events) {
			t.Errorf("cluster %d L1.5 events diverged", i)
		}
		if !reflect.DeepEqual(a.Stats, b.Stats) {
			t.Errorf("cluster %d L1.5 stats diverged", i)
		}
	}
}

// checkReaches fails a case whose reference run does not reach the
// situation the case exists for.
func checkReaches(t *testing.T, c oracleCase, s *soc.SoC, trap cpu.Trap) {
	t.Helper()
	if len(s.Clusters[0].L15.Events) == 0 {
		t.Error("no L1.5 configuration events")
	}
	halted := 0
	for _, core := range s.Cores {
		if core.Halted {
			halted++
		}
	}
	var ok bool
	switch c.reaches {
	case allHalted:
		ok = halted == len(s.Cores)
	case someCapped:
		ok = halted > 0 && halted < len(s.Cores)
	case restarted:
		ok = halted == len(s.Cores) && s.Cores[7].Stats.Instret > 0
	case stopped:
		ok = trap.Kind == cpu.TrapECall && halted < len(s.Cores)
	}
	if !ok {
		t.Errorf("reference run does not reach %q (%d of %d cores halted, trap %v)",
			c.reaches, halted, len(s.Cores), trap.Kind)
	}
}
