// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark runs a reduced-size instance of the corresponding
// experiment per iteration and reports the headline quantity the paper
// reports as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the reproduced numbers:
//
//	BenchmarkFig7a / b / c   — mean makespan gain of Prop vs CMP|L1 and CMP|L2
//	BenchmarkTable2          — worst-case (cold) normalised makespan gain
//	BenchmarkFig8a / b       — success-ratio advantage at 70% utilisation
//	BenchmarkFig8c           — L1.5 way utilisation and φ at 100% utilisation
//	BenchmarkAreaOverhead    — §5.4 silicon overhead ratio
//
// Layer benchmarks sit under them: BenchmarkSynthetic (workload
// generation), BenchmarkAlg1 and BenchmarkLongestPathFirst (sched),
// BenchmarkSchedsimRun (one trial's simulation), BenchmarkCPUStep and
// BenchmarkSoCNew (the SoC).
//
// The full-size experiments (500 DAGs, 200 trials) live in the cmd/ tools.
package l15cache_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"l15cache/internal/area"
	"l15cache/internal/cpu"
	"l15cache/internal/experiments"
	"l15cache/internal/flight"
	"l15cache/internal/rtsim"
	"l15cache/internal/sched"
	"l15cache/internal/schedsim"
	"l15cache/internal/soc"
	"l15cache/internal/telemetry"
	"l15cache/internal/workload"
)

func benchCfg() experiments.MakespanConfig {
	cfg := experiments.DefaultMakespanConfig()
	cfg.DAGs = 60
	cfg.Instances = 10
	return cfg
}

func reportGains(b *testing.B, s *experiments.MakespanSweep) {
	b.Helper()
	b.ReportMetric(100*s.Gain(experiments.SysCMPL1), "%gain-vs-CMP|L1")
	b.ReportMetric(100*s.Gain(experiments.SysCMPL2), "%gain-vs-CMP|L2")
}

// BenchmarkFig7a regenerates Fig. 7(a): normalised average makespan vs
// task utilisation U ∈ {0.2..1.0}.
func BenchmarkFig7a(b *testing.B) {
	var sweep *experiments.MakespanSweep
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Seed = int64(i + 1)
		s, err := experiments.SweepUtilization(context.Background(), cfg, []float64{0.2, 0.4, 0.6, 0.8, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		sweep = s
	}
	reportGains(b, sweep)
}

// BenchmarkFig7b regenerates Fig. 7(b): makespan vs layer width p.
func BenchmarkFig7b(b *testing.B) {
	var sweep *experiments.MakespanSweep
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Seed = int64(i + 1)
		s, err := experiments.SweepWidth(context.Background(), cfg, []float64{9, 12, 15, 18, 21})
		if err != nil {
			b.Fatal(err)
		}
		sweep = s
	}
	reportGains(b, sweep)
}

// BenchmarkFig7c regenerates Fig. 7(c): makespan vs critical-path ratio.
func BenchmarkFig7c(b *testing.B) {
	var sweep *experiments.MakespanSweep
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Seed = int64(i + 1)
		s, err := experiments.SweepCPR(context.Background(), cfg, []float64{0.1, 0.2, 0.3, 0.4, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		sweep = s
	}
	reportGains(b, sweep)
}

// BenchmarkMakespanParallel measures the runner-backed makespan sweep at
// the machine's full worker count — the parallel hot path of cmd/makespan.
// Its wall time against BenchmarkMakespanSerial tracks the harness
// speed-up (the two produce bit-identical sweeps by construction).
func BenchmarkMakespanParallel(b *testing.B) {
	benchMakespanWorkers(b, runtime.NumCPU())
	b.ReportMetric(float64(runtime.NumCPU()), "workers")
}

// BenchmarkMakespanSerial is BenchmarkMakespanParallel pinned to a single
// worker: the serial baseline for the harness speed-up.
func BenchmarkMakespanSerial(b *testing.B) {
	benchMakespanWorkers(b, 1)
}

func benchMakespanWorkers(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Seed = int64(i + 1)
		cfg.Run.Workers = workers
		if _, err := experiments.SweepUtilization(context.Background(), cfg, []float64{0.6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Tab. 2: the deadline-normalised *worst-case*
// makespan of CMP [15] vs the proposed system over the utilisation sweep.
func BenchmarkTable2(b *testing.B) {
	var sweep *experiments.MakespanSweep
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Seed = int64(i + 1)
		s, err := experiments.SweepUtilization(context.Background(), cfg, []float64{0.2, 0.6, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		sweep = s
	}
	b.ReportMetric(100*sweep.WorstGain(experiments.SysCMPL1), "%worst-case-gain")
	last := sweep.Points[len(sweep.Points)-1]
	b.ReportMetric(last.Worst[experiments.SysCMPL1], "CMP-worst@U=1")
	b.ReportMetric(last.Worst[experiments.SysProp], "Prop-worst@U=1")
}

func benchCaseStudy(b *testing.B, cores int) {
	var res *experiments.CaseStudyResult
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultCaseStudyConfig(cores)
		cfg.Trials = 25
		cfg.Seed = int64(i + 1)
		r, err := experiments.RunCaseStudy(context.Background(), cfg, []float64{0.7})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	pt := res.Points[0]
	b.ReportMetric(pt.Success[rtsim.KindProp.String()], "success-Prop@70%")
	b.ReportMetric(pt.Success[rtsim.KindCMPL1.String()], "success-CMP|L1@70%")
	b.ReportMetric(pt.Success[rtsim.KindCMPL2.String()], "success-CMP|L2@70%")
}

// BenchmarkFig8a regenerates one point of Fig. 8(a): success ratios on the
// 8-core SoC at 70% target utilisation.
func BenchmarkFig8a(b *testing.B) { benchCaseStudy(b, 8) }

// BenchmarkFig8b regenerates the same point on the 16-core SoC (Fig. 8(b)).
func BenchmarkFig8b(b *testing.B) { benchCaseStudy(b, 16) }

// BenchmarkFig8c regenerates Fig. 8(c): the proposed system's L1.5 way
// utilisation and mis-configuration ratio φ at 100% utilisation, 8 cores.
func BenchmarkFig8c(b *testing.B) {
	var pts []experiments.SideEffectsPoint
	for i := 0; i < b.N; i++ {
		cfg := experiments.SideEffectsConfig{
			Trials: 10,
			Seed:   int64(i + 1),
			RT:     rtsim.DefaultConfig(),
			Set:    workload.DefaultTaskSetParams(),
		}
		p, err := experiments.RunSideEffects(context.Background(), cfg, []int{8}, []float64{1.0})
		if err != nil {
			b.Fatal(err)
		}
		pts = p
	}
	b.ReportMetric(100*pts[0].WayUtilization, "%way-utilisation")
	b.ReportMetric(100*pts[0].Phi, "%phi")
}

// BenchmarkAreaOverhead regenerates §5.4: the 16-core SoC silicon overhead
// of the L1.5 Cache over the equal-capacity conventional design.
func BenchmarkAreaOverhead(b *testing.B) {
	var rep area.OverheadReport
	for i := 0; i < b.N; i++ {
		r, err := area.CompareOverhead(area.Synopsys28nm())
		if err != nil {
			b.Fatal(err)
		}
		rep = r
	}
	b.ReportMetric(rep.Proposed.Total(), "mm2-proposed")
	b.ReportMetric(rep.Conventional.Total(), "mm2-conventional")
	b.ReportMetric(100*rep.Overhead(), "%overhead")
}

// BenchmarkAlg1 measures the scheduler itself: Algorithm 1 on a default
// synthetic DAG (its cubic complexity is the paper's stated bound).
func BenchmarkAlg1(b *testing.B) {
	cfg := experiments.DefaultMakespanConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		task := mustSynthetic(b, int64(i+1), cfg)
		b.StartTimer()
		if _, err := scheduleL15(task); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedsimRun measures the simulator alone on one Fig. 7 trial's
// work: a default synthetic DAG, scheduled beforehand, run for 10
// instances on each of the three systems (Prop under Alg. 1, CMP|L1 and
// CMP|L2 under longest-path-first).
func BenchmarkSchedsimRun(b *testing.B) {
	task := mustSynthetic(b, 1, experiments.DefaultMakespanConfig())
	prop, err := schedsim.NewProposed(task.Clone(), schedsim.DefaultZeta, schedsim.DefaultWayBytes)
	if err != nil {
		b.Fatal(err)
	}
	type system struct {
		plat  schedsim.Platform
		alloc *sched.Result
	}
	systems := []system{{prop, prop.Alloc}}
	for _, plat := range []schedsim.Platform{schedsim.CMPL1(), schedsim.CMPL2()} {
		alloc, err := sched.LongestPathFirst(task.Clone())
		if err != nil {
			b.Fatal(err)
		}
		systems = append(systems, system{plat, alloc})
	}
	opt := schedsim.Options{Instances: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range systems {
			if _, err := schedsim.Run(s.alloc, s.plat, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLongestPathFirst measures the baselines' priority assignment
// (He et al. [8]) on a default synthetic DAG.
func BenchmarkLongestPathFirst(b *testing.B) {
	task := mustSynthetic(b, 1, experiments.DefaultMakespanConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.LongestPathFirst(task); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthetic measures generating one §5.1 synthetic DAG with the
// default parameters, WCET steering included.
func BenchmarkSynthetic(b *testing.B) {
	cfg := experiments.DefaultMakespanConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustSynthetic(b, int64(i+1), cfg)
	}
}

// BenchmarkSoCSharing measures the cycle-approximate SoC executing the
// producer/consumer programming-model demo (instructions simulated per op).
func BenchmarkSoCSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSharingDemo(b)
	}
}

// BenchmarkCPUStep measures one core stepping cpuLoop through its SoC
// memory port (TLB, L1 I$/D$, L1.5, memory) with no run loop around it,
// and reports host nanoseconds per simulated instruction. A warm-up pass
// before the timer fills the caches and creates the memory pages, so
// every timed pass is the steady state.
func BenchmarkCPUStep(b *testing.B) {
	s, err := soc.New(soc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.LoadProgram(0x1000, cpuLoop); err != nil {
		b.Fatal(err)
	}
	if err := s.SetPageTable(0, s.IdentityPageTable(1)); err != nil {
		b.Fatal(err)
	}
	core := s.Cores[0]
	pass := func() uint64 {
		s.StartCore(0, 0x1000, 0x8000)
		before := core.Stats.Instret
		trap, err := core.Run(1<<30, nil)
		if err != nil || trap.Kind != cpu.TrapEBreak {
			b.Fatalf("loop ended with trap %v, err %v", trap.Kind, err)
		}
		return core.Stats.Instret - before
	}
	pass()
	var instret uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instret += pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instret), "ns/instr")
}

// socNewBatch is the number of SoCs one BenchmarkSoCNew op builds, so a
// single-iteration run times well over a millisecond.
const socNewBatch = 64

// BenchmarkSoCNew measures building the default 8-core SoC: caches, TLBs,
// L1.5s, cores and memory. It reports host nanoseconds per SoC.
func BenchmarkSoCNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < socNewBatch; j++ {
			if _, err := soc.New(soc.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*socNewBatch), "ns/SoC")
}

// BenchmarkAblationZeta measures the ζ-sweep ablation (reduced size) and
// reports the makespan ratio between no L1.5 and the paper's 16 ways.
func BenchmarkAblationZeta(b *testing.B) {
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultMakespanConfig()
		cfg.DAGs = 40
		cfg.Seed = int64(i + 1)
		r, err := experiments.AblateZeta(context.Background(), cfg, []int{0, 16})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.Points[0].Value/res.Points[1].Value, "makespan-ratio-0-vs-16-ways")
}

// BenchmarkAcceptance measures the §4.2 analytical schedulability sweep and
// reports the bound-acceptance advantage at the U=2.5 crossover.
func BenchmarkAcceptance(b *testing.B) {
	var pts []experiments.AcceptancePoint
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultAcceptanceConfig()
		cfg.DAGs = 60
		cfg.Seed = int64(i + 1)
		p, err := experiments.AcceptanceRatio(context.Background(), cfg, []float64{2.5})
		if err != nil {
			b.Fatal(err)
		}
		pts = p
	}
	b.ReportMetric(pts[0].PropAccepted, "prop-bound@U=2.5")
	b.ReportMetric(pts[0].BaseAccepted, "cmp-bound@U=2.5")
}

// BenchmarkRTOSKernel measures the hardware-in-the-loop kernel: one
// periodic pipeline, two jobs, on the cycle-approximate SoC.
func BenchmarkRTOSKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runKernelBench(b)
	}
}

// benchFlightTrial runs one fixed real-time trial (8 cores, 60% target
// utilisation, proposed system), optionally with the flight recorder
// attached — the recording-on/recording-off pair behind the benchjson
// recorder-overhead gate.
func benchFlightTrial(b *testing.B, record bool) {
	b.Helper()
	// The ring is allocated once per process in the cmd tools, so it is
	// allocated once here too — the pair measures the Emit hot path, not
	// a 25 MB make([]Event) per iteration.
	var rec *flight.Recorder
	if record {
		rec = flight.New()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(7))
		set := workload.DefaultTaskSetParams()
		set.TargetUtilization = 0.6 * 8
		tasks, err := workload.TaskSet(r, set)
		if err != nil {
			b.Fatal(err)
		}
		cfg := rtsim.DefaultConfig()
		cfg.Recorder = rec
		if _, err := rtsim.Run(tasks, rtsim.KindProp, cfg); err != nil {
			b.Fatal(err)
		}
		if record && rec.Len() == 0 {
			b.Fatal("recorder attached but empty")
		}
	}
}

// BenchmarkFlightRecorderOff is the baseline half of the overhead pair.
func BenchmarkFlightRecorderOff(b *testing.B) { benchFlightTrial(b, false) }

// BenchmarkFlightRecorderOn is the recording half; benchjson -overhead
// warns when it exceeds the Off half by more than 5%.
func BenchmarkFlightRecorderOn(b *testing.B) { benchFlightTrial(b, true) }

// benchTelemetryTrial runs the same fixed trial as benchFlightTrial,
// optionally under a live telemetry sampler over the merged default
// registries — the pair behind the benchjson telemetry-overhead gate.
// The sampler polls far faster than production (1ms vs 250ms) so the
// measured overhead bounds the real deployment from above.
func benchTelemetryTrial(b *testing.B, sampled bool) {
	b.Helper()
	if sampled {
		s := telemetry.NewSampler(nil, time.Millisecond, 1024)
		s.Start()
		defer s.Stop()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(7))
		set := workload.DefaultTaskSetParams()
		set.TargetUtilization = 0.6 * 8
		tasks, err := workload.TaskSet(r, set)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rtsim.Run(tasks, rtsim.KindProp, rtsim.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryOff is the baseline half of the overhead pair.
func BenchmarkTelemetryOff(b *testing.B) { benchTelemetryTrial(b, false) }

// BenchmarkTelemetryOn runs under an aggressive 1ms sampler; benchjson
// -overhead warns when it exceeds the Off half by more than 5%.
func BenchmarkTelemetryOn(b *testing.B) { benchTelemetryTrial(b, true) }
