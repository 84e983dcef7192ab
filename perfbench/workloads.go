package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"l15cache/internal/dag"
	"l15cache/internal/experiments"
	"l15cache/internal/memo"
	"l15cache/internal/metrics"
	"l15cache/internal/rtos"
	"l15cache/internal/rtsim"
	"l15cache/internal/runner"
	"l15cache/internal/sched"
	"l15cache/internal/schedsim"
	"l15cache/internal/soc"
	"l15cache/internal/stats"
	"l15cache/internal/workload"
)

// size scales a workload: full for the benchmark, toy for the package
// test.
type size int

const (
	full size = iota
	toy
)

// instance is one workload set up for a seed.
type instance interface {
	// trialsPerOp is the number of trials one op runs.
	trialsPerOp() int
	// op runs one operation through the public entry points and returns
	// its canonical output. A non-nil tracer gets a span around the call.
	op(tr *tracer) ([]byte, error)
	// replay re-runs one op's trial bodies serially, layer by layer, reps
	// times.
	replay(tr *tracer, reps int) (*replayed, error)
}

// replayed is the outcome of a replay.
type replayed struct {
	out    []byte             // canonical output of the last rep; must equal op's
	counts map[string]float64 // per-layer counts
	loop   time.Duration      // host time of the reps alone, without probe set-up
}

// spec names a workload and how to set it up. README.md gives the reason
// for each workload.
type spec struct {
	check   string // reference.json key of the op's output
	prepare func(seed int64, sz size) (instance, error)
}

var workloads = map[string]spec{
	"fig7-makespan": {
		check: "fig7",
		prepare: func(seed int64, sz size) (instance, error) {
			return newFig7(seed, sz, nil), nil
		},
	},
	"fig8-casestudy": {
		check:   "fig8-casestudy",
		prepare: newFig8,
	},
	"soc-rtos": {
		check:   "soc-rtos",
		prepare: newSoC,
	},
	"fig7-warm": {
		check:   "fig7",
		prepare: newWarm,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sweepWorkers is the runner pool size of the sweeps. On a 2-CPU host,
// runs with two workers spread trials_per_s about six times wider than
// runs with one, which leaves a CPU to the garbage collector.
const sweepWorkers = 1

// ---- fig7-makespan ----

// fig7 is the Fig. 7(a) utilisation sweep at reduced DAG count.
type fig7 struct {
	cfg    experiments.MakespanConfig
	utils  []float64
	sweeps int // sweeps per op: 1, or many when served from memo
}

func newFig7(seed int64, sz size, cache *memo.Cache) *fig7 {
	cfg := experiments.DefaultMakespanConfig()
	cfg.Seed = seed
	cfg.DAGs = 100
	cfg.Run.Workers = sweepWorkers
	cfg.Run.Memo = cache
	utils := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	if sz == toy {
		cfg.DAGs = 4
		utils = []float64{0.4, 0.8}
	}
	return &fig7{cfg: cfg, utils: utils, sweeps: 1}
}

func (f *fig7) trialsPerOp() int { return f.sweeps * f.cfg.DAGs * len(f.utils) }

// op runs the sweep f.sweeps times. A sweep that disagrees with the op's
// first is appended to the output, so the output check fails the op.
func (f *fig7) op(tr *tracer) ([]byte, error) {
	var out []byte
	for i := 0; i < f.sweeps; i++ {
		s := tr.begin(0, "experiments.sweep", -1)
		sw, err := experiments.SweepUtilization(context.Background(), f.cfg, f.utils)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(sw.Points)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = raw
		} else if !bytes.Equal(raw, out) {
			return append(out, raw...), nil
		}
	}
	return out, nil
}

// dagResult mirrors the JSON form of one fig7 trial's result: per system
// the mean and worst makespan over the instances, over the period.
type dagResult struct {
	Avg   map[string]float64 `json:"avg"`
	Worst map[string]float64 `json:"worst"`
}

// forEachTrial visits every trial of one sweep in index order with its
// utilisation point and shard seed, as experiments.SweepUtilization
// derives them.
func (f *fig7) forEachTrial(fn func(point, index int, p workload.SynthParams, seed int64) error) error {
	for i, u := range f.utils {
		p := f.cfg.Base
		p.Utilization = u
		root := runner.Seed(f.cfg.Seed, i)
		for j := 0; j < f.cfg.DAGs; j++ {
			if err := fn(i, j, p, runner.Seed(root, j)); err != nil {
				return err
			}
		}
	}
	return nil
}

// reduce folds per-trial results into sweep points in index order, the
// reduction the harness performs.
func (f *fig7) reduce(results [][]dagResult) ([]byte, error) {
	points := make([]experiments.MakespanPoint, len(f.utils))
	for i, u := range f.utils {
		sums, worsts := map[string]float64{}, map[string]float64{}
		for _, r := range results[i] {
			for sys, v := range r.Avg {
				sums[sys] += v
			}
			for sys, v := range r.Worst {
				worsts[sys] += v
			}
		}
		pt := experiments.MakespanPoint{Param: u, Avg: map[string]float64{}, Worst: map[string]float64{}}
		for sys, v := range sums {
			pt.Avg[sys] = v / float64(f.cfg.DAGs)
		}
		for sys, v := range worsts {
			pt.Worst[sys] = v / float64(f.cfg.DAGs)
		}
		points[i] = pt
	}
	return json.Marshal(points)
}

func (f *fig7) replay(tr *tracer, reps int) (*replayed, error) {
	start := time.Now()
	var out []byte
	var c layerCounts
	for rep := 0; rep < reps; rep++ {
		results := make([][]dagResult, len(f.utils))
		err := f.forEachTrial(func(point, _ int, p workload.SynthParams, seed int64) error {
			r, err := f.trial(tr, p, seed, &c)
			results[point] = append(results[point], r)
			return err
		})
		if err != nil {
			return nil, err
		}
		if out, err = f.reduce(results); err != nil {
			return nil, err
		}
	}
	return &replayed{out, c.dagMeans(), time.Since(start)}, nil
}

// trial replays one fig7 trial body (one DAG through the three systems),
// then probes Alg. 1 and the longest-path pass on the same DAG outside
// the trial span.
func (f *fig7) trial(tr *tracer, p workload.SynthParams, seed int64, c *layerCounts) (dagResult, error) {
	id := uint64(seed)
	res := dagResult{Avg: map[string]float64{}, Worst: map[string]float64{}}
	root := tr.begin(id, "trial", -1)
	s := tr.begin(id, "workload.synthetic", root)
	task, err := workload.Synthetic(rand.New(rand.NewSource(seed)), p)
	tr.end(s)
	if err != nil {
		return res, err
	}
	opt := schedsim.Options{Cores: f.cfg.Cores, Instances: f.cfg.Instances, Kernel: f.cfg.Kernel}

	s = tr.begin(id, "dag.clone", root)
	clone := task.Clone()
	tr.end(s)
	s = tr.begin(id, "schedsim.new_proposed", root)
	prop, err := schedsim.NewProposed(clone, f.cfg.Zeta, f.cfg.WayBytes)
	tr.end(s)
	if err != nil {
		return res, err
	}
	if err := f.simulate(tr, id, root, &res, task.Period, prop.Alloc, prop, opt); err != nil {
		return res, err
	}
	for _, plat := range []schedsim.Platform{schedsim.CMPL1(), schedsim.CMPL2()} {
		s = tr.begin(id, "dag.clone", root)
		clone := task.Clone()
		tr.end(s)
		s = tr.begin(id, "sched.lpf", root)
		alloc, err := sched.LongestPathFirst(clone)
		tr.end(s)
		if err != nil {
			return res, err
		}
		if err := f.simulate(tr, id, root, &res, task.Period, alloc, plat, opt); err != nil {
			return res, err
		}
	}
	tr.end(root)

	waves, err := probeSched(tr, id, task, f.cfg.Zeta, f.cfg.WayBytes)
	c.addDAG(task, waves)
	return res, err
}

// simulate runs one system's instances and records its makespans.
func (f *fig7) simulate(tr *tracer, id uint64, parent int, res *dagResult, period float64, alloc *sched.Result, plat schedsim.Platform, opt schedsim.Options) error {
	s := tr.begin(id, "schedsim.run."+systemKey(plat.Name()), parent)
	st, err := schedsim.Run(alloc, plat, opt)
	tr.end(s)
	if err != nil {
		return err
	}
	ms := schedsim.Makespans(st)
	res.Avg[plat.Name()] = stats.Mean(ms) / period
	res.Worst[plat.Name()] = stats.Max(ms) / period
	return nil
}

// probeSched times Alg. 1 and one raw-cost longest-path pass on clones of
// task, and returns the Alg. 1 wave count.
func probeSched(tr *tracer, id uint64, task *dag.Task, zeta int, wayBytes int64) (int, error) {
	clone := task.Clone()
	s := tr.begin(id, "sched.l15", -1)
	alloc, err := sched.L15Schedule(clone, zeta, wayBytes)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin(id, "dag.longest", -1)
	task.LongestThrough(dag.RawCost)
	tr.end(s)
	return len(alloc.Waves), nil
}

// systemKey turns a report name ("CMP|L1") into a metric suffix ("cmp_l1").
func systemKey(name string) string {
	switch name {
	case experiments.SysProp:
		return "prop"
	case experiments.SysCMPL1:
		return "cmp_l1"
	case experiments.SysCMPL2:
		return "cmp_l2"
	case rtsim.KindSharedL1.String():
		return "shared_l1"
	}
	return name
}

// layerCounts accumulates the per-layer counts of a replay.
type layerCounts struct {
	dags, nodes, edges, waves int

	rtRuns, propRuns int
	jobs, misses     int
	phiSum, waySum   float64
}

func (c *layerCounts) addDAG(t *dag.Task, waves int) {
	c.dags++
	c.nodes += len(t.Nodes)
	c.edges += len(t.Edges)
	c.waves += waves
}

func (c *layerCounts) dagMeans() map[string]float64 {
	if c.dags == 0 {
		return map[string]float64{}
	}
	return map[string]float64{
		"dag.nodes":   float64(c.nodes) / float64(c.dags),
		"dag.edges":   float64(c.edges) / float64(c.dags),
		"sched.waves": float64(c.waves) / float64(c.dags),
	}
}

// ---- fig8-casestudy ----

// fig8 is the Fig. 8 case study at reduced trial count.
type fig8 struct {
	cfg   experiments.CaseStudyConfig
	utils []float64
}

func newFig8(seed int64, sz size) (instance, error) {
	cfg := experiments.DefaultCaseStudyConfig(8)
	cfg.Seed = seed
	cfg.Trials = 40
	cfg.Run.Workers = sweepWorkers
	utils := []float64{0.5, 0.7, 0.9}
	if sz == toy {
		cfg.Trials = 2
		utils = []float64{0.5, 0.9}
	}
	return &fig8{cfg: cfg, utils: utils}, nil
}

func (f *fig8) trialsPerOp() int { return f.cfg.Trials * len(f.utils) }
func (f *fig8) op(tr *tracer) ([]byte, error) {
	s := tr.begin(0, "experiments.sweep", -1)
	res, err := experiments.RunCaseStudy(context.Background(), f.cfg, f.utils)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

func (f *fig8) replay(tr *tracer, reps int) (*replayed, error) {
	start := time.Now()
	var out []byte
	var c layerCounts
	for rep := 0; rep < reps; rep++ {
		res := &experiments.CaseStudyResult{Cores: f.cfg.Cores}
		for ui, util := range f.utils {
			set := f.cfg.Set
			set.TargetUtilization = util * float64(f.cfg.Cores)
			set.Tasks = f.cfg.Tasks
			root := runner.Seed(f.cfg.Seed, ui)
			pt := experiments.CaseStudyPoint{Utilization: util, Success: map[string]float64{}}
			for j := 0; j < f.cfg.Trials; j++ {
				ok, err := f.trial(tr, set, runner.Seed(root, j), &c)
				if err != nil {
					return nil, err
				}
				for _, sys := range experiments.CaseStudySystems() {
					if ok[sys.String()] {
						pt.Success[sys.String()] += 1 / float64(f.cfg.Trials)
					}
				}
			}
			res.Points = append(res.Points, pt)
		}
		var err error
		if out, err = json.Marshal(res); err != nil {
			return nil, err
		}
	}
	loop := time.Since(start)
	m := c.dagMeans()
	if c.rtRuns > 0 {
		m["rtsim.jobs"] = float64(c.jobs) / float64(c.rtRuns)
		m["rtsim.misses"] = float64(c.misses) / float64(c.rtRuns)
	}
	if c.propRuns > 0 {
		m["rtsim.phi"] = c.phiSum / float64(c.propRuns)
		m["rtsim.way_util"] = c.waySum / float64(c.propRuns)
	}
	return &replayed{out, m, loop}, nil
}

// trial replays one case-study trial (one task set through the four
// systems), then probes Alg. 1 and the longest path on each task.
func (f *fig8) trial(tr *tracer, set workload.TaskSetParams, seed int64, c *layerCounts) (map[string]bool, error) {
	id := uint64(seed)
	root := tr.begin(id, "trial", -1)
	s := tr.begin(id, "workload.taskset", root)
	tasks, err := workload.TaskSet(rand.New(rand.NewSource(seed)), set)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	ok := make(map[string]bool, 4)
	for _, kind := range experiments.CaseStudySystems() {
		s := tr.begin(id, "rtsim.run."+systemKey(kind.String()), root)
		m, err := rtsim.Run(tasks, kind, f.cfg.RT)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		ok[kind.String()] = m.Success()
		c.rtRuns++
		c.jobs += m.Jobs
		c.misses += m.Misses
		if kind == rtsim.KindProp {
			c.propRuns++
			c.phiSum += m.Phi
			c.waySum += m.WayUtilization
		}
	}
	tr.end(root)
	for _, t := range tasks {
		waves, err := probeSched(tr, id, t, f.cfg.RT.Zeta, f.cfg.RT.WayBytes)
		if err != nil {
			return nil, err
		}
		c.addDAG(t, waves)
	}
	return ok, nil
}

// ---- soc-rtos ----

// socRTOS runs the hardware case study's task set (two sensing pipelines
// × 3 jobs) through rtos on the simulated SoC, L1.5 on and then off.
type socRTOS struct {
	specs []rtos.TaskSpec
	jobs  int
}

// pipelineWCET and pipelineData are the hardware case study's per-node
// compute iterations and dependent-data bytes (acquire, filter-l,
// filter-r, fuse, classify, act).
var (
	pipelineWCET = []float64{1500, 2500, 2500, 2000, 3000, 1000}
	pipelineData = []int64{8192, 4096, 4096, 8192, 4096, 0}
)

// pipeline draws one sensing pipeline from r: each node's compute is its
// case-study value × [0.75, 1.25), rescaled so the pipeline's total stays
// that of the case study × scale (to within rounding), and the producing
// nodes' data volumes are shuffled. The seed changes the shape, not the
// amount of work, so trials_per_s does not move with the seed.
func pipeline(r *rand.Rand, name string, scale float64) *dag.Task {
	var total, drawn float64
	wcet := make([]float64, len(pipelineWCET))
	for i, w := range pipelineWCET {
		total += w * scale
		wcet[i] = w * (0.75 + 0.5*r.Float64())
		drawn += wcet[i]
	}
	data := append([]int64(nil), pipelineData...)
	r.Shuffle(len(data)-1, func(i, j int) { data[i], data[j] = data[j], data[i] })

	t := dag.New(name, 1, 1)
	ids := make([]dag.NodeID, len(wcet))
	names := []string{"acquire", "filter-l", "filter-r", "fuse", "classify", "act"}
	for i := range wcet {
		ids[i] = t.AddNode(names[i], float64(int(wcet[i]*total/drawn)), data[i])
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}} {
		t.MustAddEdge(ids[e[0]], ids[e[1]], 10, 0.6)
	}
	return t
}

func newSoC(seed int64, sz size) (instance, error) {
	r := rand.New(rand.NewSource(seed))
	s := &socRTOS{
		specs: []rtos.TaskSpec{
			{Task: pipeline(r, "pipeline-A", 1.0), PeriodCycles: 250_000, DeadlineCycles: 250_000},
			{Task: pipeline(r, "pipeline-B", 0.6), PeriodCycles: 180_000, DeadlineCycles: 180_000},
		},
		jobs: 3,
	}
	if sz == toy {
		s.jobs = 1
	}
	return s, nil
}

func (s *socRTOS) trialsPerOp() int { return 1 }

// socCounts are the simulated statistics of one kernel run.
type socCounts struct {
	Instret, Cycles, FetchStall, MemStall uint64
	L15Hits, L15Global, L15Misses         uint64
	ConfigEvents                          uint64
	L2Hits, L2Misses                      uint64
}

func countsOf(s *soc.SoC) socCounts {
	var c socCounts
	for _, core := range s.Cores {
		c.Instret += core.Stats.Instret
		c.Cycles += core.Cycles
		c.FetchStall += core.Stats.FetchStall
		c.MemStall += core.Stats.MemStall
	}
	for _, cl := range s.Clusters {
		for _, st := range cl.L15.Stats {
			c.L15Hits += st.Hits
			c.L15Global += st.GlobalHits
			c.L15Misses += st.Misses
		}
		c.ConfigEvents += uint64(len(cl.L15.Events))
	}
	c.L2Hits, c.L2Misses = s.L2.Stats.Hits, s.L2.Stats.Misses
	return c
}

// socRun is the canonical output of one kernel run.
type socRun struct {
	Records []rtos.JobRecord
	Counts  socCounts
}

// kernelRun builds and runs the kernel once, with spans around rtos.New
// and Kernel.Run.
func (s *socRTOS) kernelRun(tr *tracer, id uint64, parent int, useL15 bool) (socRun, error) {
	suffix := ".l15_off"
	if useL15 {
		suffix = ".l15_on"
	}
	cfg := rtos.Config{SoC: soc.DefaultConfig(), UseL15: useL15, JobsPerTask: s.jobs}
	sp := tr.begin(id, "rtos.new"+suffix, parent)
	k, err := rtos.New(cfg, s.specs)
	tr.end(sp)
	if err != nil {
		return socRun{}, err
	}
	sp = tr.begin(id, "rtos.run"+suffix, parent)
	recs, err := k.Run()
	tr.end(sp)
	if err != nil {
		return socRun{}, err
	}
	return socRun{Records: recs, Counts: countsOf(k.SoC())}, nil
}

// trial runs the task set with the L1.5 on, then off.
func (s *socRTOS) trial(tr *tracer, id uint64) ([2]socRun, []byte, error) {
	var runs [2]socRun
	root := tr.begin(id, "trial", -1)
	for i, on := range []bool{true, false} {
		r, err := s.kernelRun(tr, id, root, on)
		if err != nil {
			return runs, nil, err
		}
		runs[i] = r
	}
	tr.end(root)
	out, err := json.Marshal(runs)
	return runs, out, err
}

func (s *socRTOS) op(tr *tracer) ([]byte, error) {
	_, out, err := s.trial(nil, 0)
	return out, err
}

func (s *socRTOS) replay(tr *tracer, reps int) (*replayed, error) {
	start := time.Now()
	var out []byte
	var runs [2]socRun
	for rep := 0; rep < reps; rep++ {
		var err error
		if runs, out, err = s.trial(tr, uint64(rep)); err != nil {
			return nil, err
		}
		sp := tr.begin(uint64(rep), "soc.new", -1)
		_, err = soc.New(soc.DefaultConfig())
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	loop := time.Since(start)
	var c layerCounts
	for _, spec := range s.specs {
		c.addDAG(spec.Task, 0)
	}
	on := runs[0].Counts
	m := c.dagMeans()
	m["cpu.instret"] = float64(on.Instret)
	m["cpu.cycles"] = float64(on.Cycles)
	m["cpu.ipc"] = float64(on.Instret) / float64(on.Cycles)
	m["cpu.fetch_stall_cycles"] = float64(on.FetchStall)
	m["cpu.mem_stall_cycles"] = float64(on.MemStall)
	m["l15.hits"] = float64(on.L15Hits)
	m["l15.global_hits"] = float64(on.L15Global)
	m["l15.misses"] = float64(on.L15Misses)
	m["l15.config_events"] = float64(on.ConfigEvents)
	m["l2.hits"] = float64(on.L2Hits)
	m["l2.misses"] = float64(on.L2Misses)
	if tr != nil {
		instr := float64(on.Instret + runs[1].Counts.Instret)
		run := tr.mean("rtos.run.l15_on", 1) + tr.mean("rtos.run.l15_off", 1)
		m["cpu.ns_per_instr"] = run / instr
		m["soc.sim_mips"] = instr / tr.mean("trial", 1) * 1e3
	}
	return &replayed{out, m, loop}, nil
}

// ---- fig7-warm ----

// warm is fig7-makespan served from an in-memory memo cache that set-up
// filled with one cold sweep; an op is many warm sweeps.
type warm struct {
	*fig7
	reg  *metrics.Registry // the cache's hit and miss counters
	cold []byte            // the filling sweep's output, which every op must reproduce
}

// warmSweeps is the number of warm sweeps in one op: a warm sweep takes a
// few ms, so one sweep alone would time mostly scheduler noise.
const warmSweeps = 40

func newWarm(seed int64, sz size) (instance, error) {
	reg := metrics.NewRegistry()
	cache, err := memo.New(memo.Options{Registry: reg})
	if err != nil {
		return nil, err
	}
	f := newFig7(seed, sz, cache)
	cold, err := f.op(nil)
	if err != nil {
		return nil, err
	}
	f.sweeps = warmSweeps
	return &warm{fig7: f, reg: reg, cold: cold}, nil
}

// probeFingerprint is a memo fingerprint the size of the fig7 sweep's:
// the same field set, under the benchmark's own domain so its keys never
// alias the program's.
func (w *warm) probeFingerprint(p workload.SynthParams) []byte {
	e := memo.NewEncoder("perfbench/makespan")
	e.I64("instances", int64(w.cfg.Instances))
	e.I64("cores", int64(w.cfg.Cores))
	e.I64("zeta", int64(w.cfg.Zeta))
	e.I64("way_bytes", w.cfg.WayBytes)
	e.Str("kernel", w.cfg.Kernel.String())
	p.AppendFingerprint(e)
	return e.Fingerprint()
}

// replay times the memo path of one warm sweep per trial — key, Get,
// decode — against a probe cache holding every trial's result, filled by
// timed Puts. Reproducing the sweep through it proves the path carries
// the results unchanged.
func (w *warm) replay(tr *tracer, reps int) (*replayed, error) {
	values := make([][][]byte, len(w.utils))
	err := w.forEachTrial(func(point, _ int, p workload.SynthParams, seed int64) error {
		r, err := w.trial(nil, p, seed, &layerCounts{})
		if err != nil {
			return err
		}
		raw, err := json.Marshal(r)
		values[point] = append(values[point], raw)
		return err
	})
	if err != nil {
		return nil, err
	}
	probe, err := memo.New(memo.Options{Registry: metrics.NewRegistry()})
	if err != nil {
		return nil, err
	}
	err = w.forEachTrial(func(point, j int, p workload.SynthParams, seed int64) error {
		key := memo.TrialKey(w.probeFingerprint(p), j, seed)
		s := tr.begin(uint64(seed), "memo.put", -1)
		err := probe.Put(key, values[point][j])
		tr.end(s)
		return err
	})
	if err != nil {
		return nil, err
	}

	start := time.Now()
	var out []byte
	for rep := 0; rep < reps; rep++ {
		results := make([][]dagResult, len(w.utils))
		err := w.forEachTrial(func(point, j int, p workload.SynthParams, seed int64) error {
			id := uint64(seed)
			root := tr.begin(id, "trial", -1)
			s := tr.begin(id, "memo.key", root)
			key := memo.TrialKey(w.probeFingerprint(p), j, seed)
			tr.end(s)
			s = tr.begin(id, "memo.get", root)
			raw, ok := probe.Get(key)
			tr.end(s)
			if !ok {
				return fmt.Errorf("probe cache miss at trial %d of point %d", j, point)
			}
			var r dagResult
			s = tr.begin(id, "memo.decode", root)
			err := json.Unmarshal(raw, &r)
			tr.end(s)
			tr.end(root)
			results[point] = append(results[point], r)
			return err
		})
		if err != nil {
			return nil, err
		}
		if out, err = w.reduce(results); err != nil {
			return nil, err
		}
	}

	loop := time.Since(start)

	// Hit and miss counts of one warm sweep of the program's own cache.
	hits, misses := w.reg.Counter("memo.hits"), w.reg.Counter("memo.misses")
	h0, m0 := hits.Load(), misses.Load()
	sw, err := experiments.SweepUtilization(context.Background(), w.cfg, w.utils)
	if err != nil {
		return nil, err
	}
	if raw, err := json.Marshal(sw.Points); err != nil || !bytes.Equal(raw, out) {
		return nil, fmt.Errorf("warm sweep does not match the replay")
	}
	h, m := float64(hits.Load()-h0), float64(misses.Load()-m0)
	return &replayed{out, map[string]float64{
		"memo.hits":      h,
		"memo.misses":    m,
		"memo.hit_ratio": h / (h + m),
	}, loop}, nil
}
