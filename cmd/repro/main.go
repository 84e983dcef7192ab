// Command repro is the one-shot reproduction driver: it regenerates every
// table and figure of the paper (Fig. 7, Tab. 2, Fig. 8(a,b,c), §5.4) plus
// this repository's ablations and analytical experiments, and writes a
// single markdown report.
//
// Usage:
//
//	repro [-quick] [-o report.md] [-seed S] [-workers N] [-checkpoint cp.json]
//	      [-memo] [-memo-dir DIR] [-metrics m.json] [-trace t.json]
//	      [-flight rec.jsonl]
//
// -quick runs reduced sample sizes (~30 s); the default runs the paper's
// full sizes (500 DAGs × 10 instances, 200 trials — several minutes).
// Every randomized sweep fans out on the internal/runner pool: -workers
// caps the concurrency (0 = NumCPU) without changing any result,
// -checkpoint makes an interrupted run (Ctrl-C) resumable at trial
// granularity, and -memo/-memo-dir enable the content-addressed trial
// result cache (internal/memo): a -memo-dir shared between runs serves
// every previously computed trial from disk, byte-identically.
// -metrics serialises the unified metrics registry (scheduler wave counts,
// rtsim counters, and the cycle-accurate smoke run's L1/L1.5/L2 hit+miss
// counters and SDU latency histograms) as stable JSON — the artifact the CI
// smoke job archives. -trace writes a Chrome trace_event file. -flight
// records one representative Fig. 8 case-study trial plus the
// cycle-accurate smoke run into a flight recording that cmd/explain can
// dissect; the recording is a pure function of -seed. An interrupt
// (Ctrl-C) still flushes the partial -metrics/-trace/-flight files before
// exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"l15cache/internal/area"
	"l15cache/internal/cli"
	"l15cache/internal/experiments"
	"l15cache/internal/flight"
	"l15cache/internal/memo"
	"l15cache/internal/metrics"
	"l15cache/internal/monitor"
	"l15cache/internal/rtsim"
	"l15cache/internal/runner"
	"l15cache/internal/soc"
	"l15cache/internal/workload"
)

// socSmoke runs the §4.3 producer/consumer demo plus an L1-overflowing
// sweep on the cycle-approximate SoC with the monitor attached, feeding the
// default metrics registry and tracer. This is what puts real L1/L1.5/L2
// hit+miss counters and an SDU reassignment-latency histogram into the
// -metrics snapshot.
func socSmoke(rec *flight.Recorder) (string, error) {
	cfg := soc.DefaultConfig()
	s, err := soc.New(cfg)
	if err != nil {
		return "", err
	}
	s.Instrument(metrics.Default, metrics.Trace)
	s.FlightRecord(rec)
	mon, err := monitor.Attach(s, 64)
	if err != nil {
		return "", err
	}
	mon.Tracer = metrics.Trace
	mon.PublishMetrics(metrics.Default)

	pt := s.IdentityPageTable(1)
	base := uint32(0x1000)
	for core, src := range []string{soc.DemoProducer, soc.DemoConsumer, soc.DemoSweeper} {
		n, err := s.LoadProgram(base, src)
		if err != nil {
			return "", err
		}
		if err := s.SetPageTable(core, pt); err != nil {
			return "", err
		}
		s.StartCore(core, base, 0x8000+uint32(core)*0x1000)
		base += uint32(4*n) + 0x100
	}
	for core := 3; core < len(s.Cores); core++ {
		s.Cores[core].Halted = true
	}
	if _, err := s.Run(1_000_000, nil); err != nil {
		return "", err
	}
	s.SettleSDU(64)

	var sb strings.Builder
	if err := mon.WriteReport(&sb); err != nil {
		return "", err
	}
	cl := s.Clusters[0].L15
	var hits, misses, global uint64
	for _, st := range cl.Stats {
		hits += st.Hits
		misses += st.Misses
		global += st.GlobalHits
	}
	fmt.Fprintf(&sb, "cluster 0 L1.5: hits %d (global %d), misses %d\n", hits, global, misses)
	fmt.Fprintf(&sb, "L2: hits %d, misses %d\n", s.L2.Stats.Hits, s.L2.Stats.Misses)
	return sb.String(), nil
}

// recordTrial runs one representative Fig. 8 case-study trial (8 cores,
// 60% utilisation, proposed system) with the flight recorder attached.
// The recording is a pure function of seed.
func recordTrial(seed int64, rec *flight.Recorder) error {
	r := rand.New(rand.NewSource(seed))
	set := workload.DefaultTaskSetParams()
	set.TargetUtilization = 0.6 * 8
	tasks, err := workload.TaskSet(r, set)
	if err != nil {
		return err
	}
	cfg := rtsim.DefaultConfig()
	cfg.Recorder = rec
	_, err = rtsim.Run(tasks, rtsim.KindProp, cfg)
	return err
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")

	quick := flag.Bool("quick", false, "reduced sample sizes (~30s instead of minutes)")
	out := flag.String("o", "repro_report.md", "output report path ('-' for stdout)")
	seed := flag.Int64("seed", 1, "base RNG seed")
	workers := flag.Int("workers", 0, "max concurrent trials (0 = NumCPU; never changes results)")
	checkpoint := flag.String("checkpoint", "", "JSON checkpoint file; an interrupted run resumes from it")
	memoFlag := flag.Bool("memo", false, "enable the in-memory trial result cache (never changes results)")
	memoDir := flag.String("memo-dir", "", "on-disk trial cache directory, shareable across runs (implies -memo)")
	metricsOut := flag.String("metrics", "", "write a metrics-registry JSON snapshot to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file (chrome://tracing)")
	flightOut := flag.String("flight", "", "write a flight recording (.jsonl or .bin) of a representative trial")
	showVersion := cli.VersionFlag()
	startTelemetry := cli.TelemetryFlag()
	flag.Parse()
	showVersion()
	flushTelemetry := startTelemetry()

	ctx, stop := runner.SignalContext(context.Background())
	defer stop()
	cache, err := memo.FromFlags(*memoFlag, *memoDir)
	if err != nil {
		log.Fatal(err)
	}
	run := runner.Options{Workers: *workers, Checkpoint: *checkpoint, Memo: cache}

	var rec *flight.Recorder
	if *flightOut != "" {
		rec = flight.New()
	}
	// die flushes the partial -metrics/-trace/-flight artifacts before
	// exiting, so an interrupted run (runner.Canceled reaches every
	// log.Fatal site through die) never leaves truncated or missing
	// output files.
	die := func(err error) {
		if werr := metrics.WriteFiles(*metricsOut, *traceOut); werr != nil {
			log.Print(werr)
		}
		if werr := flushTelemetry(); werr != nil {
			log.Print(werr)
		}
		if *flightOut != "" {
			if werr := flight.WriteFile(*flightOut, rec.Snapshot()); werr != nil {
				log.Print(werr)
			}
		}
		log.Fatal(err)
	}

	var sb strings.Builder
	sb.WriteString("# Reproduction report — L1.5 Cache co-design (DAC 2024)\n\n")
	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Fprintf(&sb, "Mode: %s, seed %d. See EXPERIMENTS.md for the paper-side numbers.\n\n", mode, *seed)

	mk := experiments.DefaultMakespanConfig()
	mk.Seed = *seed
	mk.Run = run
	cs8 := experiments.DefaultCaseStudyConfig(8)
	cs16 := experiments.DefaultCaseStudyConfig(16)
	cs8.Seed, cs16.Seed = *seed, *seed
	cs8.Run, cs16.Run = run, run
	seTrials := 50
	utils := []float64{0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90}
	if *quick {
		mk.DAGs = 60
		cs8.Trials, cs16.Trials = 25, 25
		seTrials = 5
		utils = []float64{0.40, 0.50, 0.60, 0.70, 0.80, 0.90}
	}

	section := func(title string) { fmt.Fprintf(&sb, "\n## %s\n\n```\n", title) }
	endSection := func() { sb.WriteString("```\n") }
	step := func(name string) { log.Printf("running %s ...", name) }

	// Fig. 7 + Tab. 2.
	type sweepRun struct {
		name string
		run  func() (*experiments.MakespanSweep, error)
	}
	for _, sr := range []sweepRun{
		{"Fig. 7(a) + Tab. 2 left — utilisation sweep", func() (*experiments.MakespanSweep, error) {
			return experiments.SweepUtilization(ctx, mk, []float64{0.2, 0.4, 0.6, 0.8, 1.0})
		}},
		{"Fig. 7(b) + Tab. 2 middle — width sweep", func() (*experiments.MakespanSweep, error) {
			return experiments.SweepWidth(ctx, mk, []float64{9, 12, 15, 18, 21})
		}},
		{"Fig. 7(c) + Tab. 2 right — cpr sweep", func() (*experiments.MakespanSweep, error) {
			return experiments.SweepCPR(ctx, mk, []float64{0.1, 0.2, 0.3, 0.4, 0.5})
		}},
	} {
		step(sr.name)
		s, err := sr.run()
		if err != nil {
			die(err)
		}
		section(sr.name)
		sb.WriteString(s.FormatFig7())
		sb.WriteString("\n")
		sb.WriteString(s.FormatTable2())
		endSection()
	}

	// Fig. 8(a,b).
	for _, cfg := range []experiments.CaseStudyConfig{cs8, cs16} {
		name := fmt.Sprintf("Fig. 8 — success ratio, %d cores", cfg.Cores)
		step(name)
		res, err := experiments.RunCaseStudy(ctx, cfg, utils)
		if err != nil {
			die(err)
		}
		section(name)
		sb.WriteString(res.Format())
		endSection()
	}

	// Fig. 8(c).
	step("Fig. 8(c) — side effects")
	seRT := rtsim.DefaultConfig()
	sePts, err := experiments.RunSideEffects(ctx, experiments.SideEffectsConfig{
		Trials: seTrials,
		Seed:   *seed,
		RT:     seRT,
		Set:    workload.DefaultTaskSetParams(),
		Run:    run,
	}, []int{8, 16}, []float64{0.8, 1.0})
	if err != nil {
		die(err)
	}
	section("Fig. 8(c) — L1.5 utilisation and φ")
	sb.WriteString(experiments.FormatSideEffects(sePts))
	endSection()

	// §5.4 area.
	step("§5.4 — hardware overhead")
	rep, err := area.CompareOverhead(area.Synopsys28nm())
	if err != nil {
		die(err)
	}
	section("§5.4 — hardware overhead")
	sb.WriteString(rep.Format())
	endSection()

	// Ablations.
	abl := mk
	if *quick {
		abl.DAGs = 40
	} else {
		abl.DAGs = 200
	}
	step("ablations")
	zeta, err := experiments.AblateZeta(ctx, abl, experiments.AblationZetaDefault())
	if err != nil {
		die(err)
	}
	prio, err := experiments.AblatePriorities(ctx, abl)
	if err != nil {
		die(err)
	}
	section("Ablations")
	sb.WriteString(zeta.Format())
	sb.WriteString("\n")
	sb.WriteString(prio.Format())
	endSection()

	// Acceptance.
	acc := experiments.DefaultAcceptanceConfig()
	acc.Seed = *seed
	acc.Run = run
	if *quick {
		acc.DAGs = 50
	}
	step("acceptance ratio")
	pts, err := experiments.AcceptanceRatio(ctx, acc, []float64{1.0, 2.0, 2.5, 3.0, 4.0})
	if err != nil {
		die(err)
	}
	section("§4.2 — analytical acceptance ratio")
	sb.WriteString(experiments.FormatAcceptance(pts))
	endSection()

	// Representative Fig. 8 trial, recorded: one proposed-system
	// real-time trial whose flight recording cmd/explain can dissect.
	if *flightOut != "" {
		step("flight-recorded case-study trial")
		if err := recordTrial(*seed, rec); err != nil {
			die(err)
		}
	}

	// Cycle-accurate smoke: the SoC + monitor run that grounds the metrics
	// snapshot in real cache counters.
	step("cycle-accurate smoke (SoC + monitor)")
	smoke, err := socSmoke(rec)
	if err != nil {
		die(err)
	}
	section("Cycle-accurate smoke — SoC hierarchy and SDU")
	sb.WriteString(smoke)
	endSection()

	// Embed the unified metrics snapshot in the report.
	snap, err := metrics.Default.Snapshot().JSON()
	if err != nil {
		die(err)
	}
	sb.WriteString("\n## Metrics snapshot\n\n```json\n")
	sb.Write(snap)
	sb.WriteString("\n```\n")

	if err := metrics.WriteFiles(*metricsOut, *traceOut); err != nil {
		die(err)
	}
	if err := flushTelemetry(); err != nil {
		die(err)
	}
	if *metricsOut != "" {
		log.Printf("wrote %s", *metricsOut)
	}
	if *traceOut != "" {
		log.Printf("wrote %s", *traceOut)
	}
	if *flightOut != "" {
		if err := flight.WriteFile(*flightOut, rec.Snapshot()); err != nil {
			die(err)
		}
		log.Printf("wrote %s (%d events, %d dropped)", *flightOut, rec.Len(), rec.Dropped())
	}

	if *out == "-" {
		fmt.Print(sb.String())
		return
	}
	if err := os.WriteFile(*out, []byte(sb.String()), 0o644); err != nil {
		die(err)
	}
	log.Printf("wrote %s", *out)
}
