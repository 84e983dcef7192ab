package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

// smallCfg keeps the statistical experiments fast in unit tests while still
// averaging enough DAGs for the orderings to be stable.
func smallCfg() MakespanConfig {
	cfg := DefaultMakespanConfig()
	cfg.DAGs = 40
	cfg.Instances = 5
	return cfg
}

func TestSweepUtilizationShape(t *testing.T) {
	s, err := SweepUtilization(context.Background(), smallCfg(), []float64{0.2, 0.6, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 || s.Name != "U" {
		t.Fatalf("bad sweep: %+v", s)
	}
	for _, sys := range s.Systems() {
		// Normalised makespan must grow with utilisation (Tab. 2's CMP
		// column scales ~linearly with U).
		prev := -1.0
		for _, pt := range s.Points {
			v := pt.Avg[sys]
			if v <= prev {
				t.Errorf("%s: avg makespan not increasing in U: %v", sys, s.Points)
				break
			}
			prev = v
		}
	}
	// The proposed system must win at every point, and CMP|L1 must beat
	// CMP|L2 (the paper's consistent ordering).
	for _, pt := range s.Points {
		if !(pt.Avg[SysProp] < pt.Avg[SysCMPL1] && pt.Avg[SysCMPL1] < pt.Avg[SysCMPL2]) {
			t.Errorf("U=%g: ordering violated: %v", pt.Param, pt.Avg)
		}
		if !(pt.Worst[SysProp] < pt.Worst[SysCMPL1]) {
			t.Errorf("U=%g: worst-case ordering violated: %v", pt.Param, pt.Worst)
		}
	}
	// Gains in the paper's band: ~11% vs CMP|L1, ~23% vs CMP|L2 (±8pp at
	// this reduced sample size).
	if g := s.Gain(SysCMPL1); g < 0.05 || g > 0.30 {
		t.Errorf("gain vs CMP|L1 = %.3f outside [0.05,0.30]", g)
	}
	if g := s.Gain(SysCMPL2); g < 0.14 || g > 0.35 {
		t.Errorf("gain vs CMP|L2 = %.3f outside [0.14,0.35]", g)
	}
	if g := s.WorstGain(SysCMPL1); g < 0.10 || g > 0.35 {
		t.Errorf("worst-case gain = %.3f outside [0.10,0.35]", g)
	}
}

func TestSweepWidthShape(t *testing.T) {
	s, err := SweepWidth(context.Background(), smallCfg(), []float64{9, 15, 21})
	if err != nil {
		t.Fatal(err)
	}
	// Wider layers mean more parallelism: makespan decreases with p for
	// every system (Tab. 2 middle block).
	for _, sys := range s.Systems() {
		prev := math.Inf(1)
		for _, pt := range s.Points {
			v := pt.Avg[sys]
			if v >= prev {
				t.Errorf("%s: avg makespan not decreasing in p", sys)
				break
			}
			prev = v
		}
	}
	for _, pt := range s.Points {
		if pt.Avg[SysProp] >= pt.Avg[SysCMPL1] {
			t.Errorf("p=%g: Prop %g should beat CMP|L1 %g",
				pt.Param, pt.Avg[SysProp], pt.Avg[SysCMPL1])
		}
	}
}

func TestSweepCPRShape(t *testing.T) {
	s, err := SweepCPR(context.Background(), smallCfg(), []float64{0.1, 0.3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Longer critical paths serialise execution: makespan increases with
	// cpr for every system (Tab. 2 right block).
	for _, sys := range s.Systems() {
		prev := -1.0
		for _, pt := range s.Points {
			v := pt.Avg[sys]
			if v <= prev {
				t.Errorf("%s: avg makespan not increasing in cpr", sys)
				break
			}
			prev = v
		}
	}
	// The paper: strong gains at cpr <= 0.3, weak at 0.5. Require a clear
	// win at 0.1 and no large loss at 0.5.
	first, last := s.Points[0], s.Points[len(s.Points)-1]
	if g := (first.Avg[SysCMPL1] - first.Avg[SysProp]) / first.Avg[SysCMPL1]; g < 0.05 {
		t.Errorf("cpr=0.1 gain vs CMP|L1 = %.3f, want >= 0.05", g)
	}
	if g := (last.Avg[SysCMPL1] - last.Avg[SysProp]) / last.Avg[SysCMPL1]; g < -0.05 {
		t.Errorf("cpr=0.5 deficit vs CMP|L1 = %.3f, want >= -0.05", g)
	}
	// Worst case must stay a Prop win across the whole sweep (Tab. 2).
	for _, pt := range s.Points {
		if pt.Worst[SysProp] >= pt.Worst[SysCMPL1] {
			t.Errorf("cpr=%g: worst-case Prop %g >= CMP %g",
				pt.Param, pt.Worst[SysProp], pt.Worst[SysCMPL1])
		}
	}
}

func TestNormalisation(t *testing.T) {
	s, err := SweepUtilization(context.Background(), smallCfg(), []float64{0.4, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	var max float64
	for _, pt := range s.NormAvg {
		for _, v := range pt.Avg {
			if v > max {
				max = v
			}
			if v < 0 || v > 1+1e-12 {
				t.Errorf("normalised value %g outside [0,1]", v)
			}
		}
	}
	if math.Abs(max-1) > 1e-12 {
		t.Errorf("max normalised value = %g, want 1", max)
	}
}

func TestFormatters(t *testing.T) {
	cfg := smallCfg()
	cfg.DAGs = 10
	s, err := SweepUtilization(context.Background(), cfg, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	fig7 := s.FormatFig7()
	for _, want := range []string{"Fig.7", "Prop", "CMP|L1", "CMP|L2", "mean gain"} {
		if !strings.Contains(fig7, want) {
			t.Errorf("Fig7 output missing %q:\n%s", want, fig7)
		}
	}
	tab2 := s.FormatTable2()
	for _, want := range []string{"Tab.2", "CMP [15]", "Prop", "worst-case gain"} {
		if !strings.Contains(tab2, want) {
			t.Errorf("Tab2 output missing %q:\n%s", want, tab2)
		}
	}
}

// TestSweepConfigValidation: every sweep rejects a non-positive DAG or core
// count. A zero core count must not fall back to schedsim's 8-core default
// (and be memoized under a key of its own).
func TestSweepConfigValidation(t *testing.T) {
	sweeps := []struct {
		name  string
		run   func(context.Context, MakespanConfig, []float64) (*MakespanSweep, error)
		value float64 // a point the sweep accepts with a valid config
	}{
		{"utilization", SweepUtilization, 0.5},
		{"width", SweepWidth, 9},
		{"cpr", SweepCPR, 0.3},
	}
	bad := []struct {
		name string
		edit func(*MakespanConfig)
	}{
		{"zero DAGs", func(c *MakespanConfig) { c.DAGs = 0 }},
		{"zero cores", func(c *MakespanConfig) { c.Cores = 0 }},
		{"negative cores", func(c *MakespanConfig) { c.Cores = -1 }},
	}
	for _, sw := range sweeps {
		cfg := smallCfg()
		cfg.DAGs = 1
		if _, err := sw.run(context.Background(), cfg, []float64{sw.value}); err != nil {
			t.Fatalf("%s sweep rejected a valid config: %v", sw.name, err)
		}
		for _, b := range bad {
			cfg := smallCfg()
			cfg.DAGs = 1
			b.edit(&cfg)
			if _, err := sw.run(context.Background(), cfg, []float64{sw.value}); err == nil {
				t.Errorf("%s sweep accepted %s", sw.name, b.name)
			}
		}
	}
}

// TestSweepWorkerInvariance is the acceptance check for the parallel
// harness: the same seeded sweep at 1 worker and at 8 workers must be
// bit-identical, down to the floating-point sums.
func TestSweepWorkerInvariance(t *testing.T) {
	run := func(workers int) *MakespanSweep {
		cfg := smallCfg()
		cfg.DAGs = 20
		cfg.Run.Workers = workers
		s, err := SweepUtilization(context.Background(), cfg, []float64{0.4, 0.8})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial, parallel := run(1), run(8)
	for i := range serial.Points {
		for _, sys := range serial.Systems() {
			if serial.Points[i].Avg[sys] != parallel.Points[i].Avg[sys] ||
				serial.Points[i].Worst[sys] != parallel.Points[i].Worst[sys] {
				t.Errorf("U=%g %s: workers=1 and workers=8 disagree: avg %v vs %v, worst %v vs %v",
					serial.Points[i].Param, sys,
					serial.Points[i].Avg[sys], parallel.Points[i].Avg[sys],
					serial.Points[i].Worst[sys], parallel.Points[i].Worst[sys])
			}
		}
	}
}

func TestSweepDeterminism(t *testing.T) {
	cfg := smallCfg()
	cfg.DAGs = 15
	a, err := SweepUtilization(context.Background(), cfg, []float64{0.6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SweepUtilization(context.Background(), cfg, []float64{0.6})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range a.Systems() {
		if a.Points[0].Avg[sys] != b.Points[0].Avg[sys] {
			t.Errorf("%s: non-deterministic result despite fixed seed", sys)
		}
	}
}
