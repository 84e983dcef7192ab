// Package l15cache reproduces "A Cache/Algorithm Co-design for Parallel
// Real-Time Systems with Data Dependency on Multi/Many-core System-on-Chips"
// (DAC 2024): the reconfigurable L1.5 Cache, the DAG scheduling algorithm
// that exploits it (Alg. 1), and the full evaluation stack.
//
// The package is a facade over the implementation packages:
//
//   - the DAG task model ([Task], [NewTask], [Fig1Example]);
//   - Algorithm 1 and the baseline priority assignment ([Schedule],
//     [LongestPathFirst]);
//   - the makespan simulator of Fig. 7 / Tab. 2 ([Simulate], [Proposed],
//     [CMPL1], [CMPL2]);
//   - the periodic real-time simulator of Fig. 8 ([RunRT]);
//   - the cycle-approximate SoC with real RV32I + L1.5 ISA execution
//     ([NewSoC], [Assemble]);
//   - the experiment harnesses that regenerate every table and figure
//     (see the cmd/ tools and the experiments package).
//
// A minimal end-to-end use:
//
//	task := l15cache.Fig1Example()
//	alloc, _ := l15cache.Schedule(task, 16, 2048)       // Alg. 1
//	prop := &l15cache.Proposed{Alloc: alloc}
//	stats, _ := l15cache.Simulate(alloc, prop, l15cache.SimOptions{Cores: 4})
//	fmt.Println(stats[0].Makespan)
package l15cache

import (
	"l15cache/internal/analysis"
	"l15cache/internal/dag"
	"l15cache/internal/etm"
	"l15cache/internal/isa"
	"l15cache/internal/rtos"
	"l15cache/internal/rtsim"
	"l15cache/internal/sched"
	"l15cache/internal/schedsim"
	"l15cache/internal/soc"
	"l15cache/internal/workload"
)

// Task model (internal/dag).
type (
	// Task is a recurrent DAG task τ = {V, E, T, D}.
	Task = dag.Task
	// Node is one vertex with WCET C_j, data volume δ_j and priority P_j.
	Node = dag.Node
	// Edge is a dependency with communication cost μ and ETM ratio α.
	Edge = dag.Edge
	// NodeID indexes a node within its task.
	NodeID = dag.NodeID
)

// NewTask returns an empty DAG task.
func NewTask(name string, period, deadline float64) *Task {
	return dag.New(name, period, deadline)
}

// Fig1Example builds the paper's running example DAG (Fig. 1 / Fig. 6).
func Fig1Example() *Task { return dag.Fig1Example() }

// Scheduling (internal/sched).
type (
	// ScheduleResult is the output of a priority/way-allocation policy.
	ScheduleResult = sched.Result
	// WayGroup is ω_x of Alg. 1.
	WayGroup = sched.WayGroup
)

// Schedule runs Algorithm 1: it assigns each node local L1.5 ways (ζ total,
// κ = wayBytes each) and a priority, longest path first.
func Schedule(t *Task, zeta int, wayBytes int64) (*ScheduleResult, error) {
	return sched.L15Schedule(t, zeta, wayBytes)
}

// LongestPathFirst is the baseline intra-task priority assignment (He et
// al.) without L1.5 ways.
func LongestPathFirst(t *Task) (*ScheduleResult, error) {
	return sched.LongestPathFirst(t)
}

// ETMCost evaluates the Execution Time Model: the communication cost of an
// edge with raw cost mu and ratio alpha when n ways of wayBytes hold the
// producer's dataBytes.
func ETMCost(mu, alpha float64, dataBytes, wayBytes int64, n int) float64 {
	return etm.Cost(mu, alpha, dataBytes, wayBytes, n)
}

// Makespan simulation (internal/schedsim).
type (
	// Platform abstracts the simulated system (Proposed or a CMP). Its
	// ExecTime, CommCost and Affinity must be pure functions of their
	// arguments: Simulate copies an instance whose inputs repeat the
	// previous one instead of simulating it again.
	Platform = schedsim.Platform
	// Proposed is the L1.5 + Alg. 1 system.
	Proposed = schedsim.Proposed
	// CMP is a conventional baseline system.
	CMP = schedsim.CMP
	// SimOptions configure the makespan simulator.
	SimOptions = schedsim.Options
	// InstanceStats reports one simulated task instance.
	InstanceStats = schedsim.InstanceStats
)

// NewProposed schedules the task with Alg. 1 and wraps it as a Platform.
func NewProposed(t *Task, zeta int, wayBytes int64) (*Proposed, error) {
	return schedsim.NewProposed(t, zeta, wayBytes)
}

// CMPL1, CMPL2 and SharedL1 return the paper's baseline systems.
func CMPL1() *CMP    { return schedsim.CMPL1() }
func CMPL2() *CMP    { return schedsim.CMPL2() }
func SharedL1() *CMP { return schedsim.SharedL1() }

// Simulate runs the non-preemptive fixed-priority work-conserving list
// scheduler over consecutive task instances.
func Simulate(alloc *ScheduleResult, plat Platform, opt SimOptions) ([]InstanceStats, error) {
	return schedsim.Run(alloc, plat, opt)
}

// Periodic real-time simulation (internal/rtsim).
type (
	// RTConfig describes the simulated SoC for the case study.
	RTConfig = rtsim.Config
	// RTMetrics reports one trial.
	RTMetrics = rtsim.Metrics
	// SystemKind selects Prop / CMP|L1 / CMP|L2 / CMP|Shared-L1.
	SystemKind = rtsim.Kind
)

// Case-study system kinds.
const (
	SystemProp     = rtsim.KindProp
	SystemCMPL1    = rtsim.KindCMPL1
	SystemCMPL2    = rtsim.KindCMPL2
	SystemSharedL1 = rtsim.KindSharedL1
)

// DefaultRTConfig mirrors the paper's 8-core SoC.
func DefaultRTConfig() RTConfig { return rtsim.DefaultConfig() }

// RunRT simulates a periodic DAG task set and reports deadline misses, way
// utilisation and the mis-configuration ratio φ.
func RunRT(tasks []*Task, kind SystemKind, cfg RTConfig) (RTMetrics, error) {
	return rtsim.Run(tasks, kind, cfg)
}

// Workload generation (internal/workload).
type (
	// SynthParams configure §5.1's synthetic DAG generator.
	SynthParams = workload.SynthParams
	// TaskSetParams configure the case-study task sets.
	TaskSetParams = workload.TaskSetParams
)

// DefaultSynthParams returns the paper's synthetic defaults (p=15, cpr=0.1,
// U=0.8).
func DefaultSynthParams() SynthParams { return workload.DefaultSynthParams() }

// Hardware model (internal/soc, internal/isa).
type (
	// SoC is the cycle-approximate multi-cluster system-on-chip.
	SoC = soc.SoC
	// SoCConfig describes its geometry and latencies.
	SoCConfig = soc.Config
)

// DefaultSoCConfig is the 8-core, two-cluster evaluation platform.
func DefaultSoCConfig() SoCConfig { return soc.DefaultConfig() }

// NewSoC builds a simulated SoC.
func NewSoC(cfg SoCConfig) (*SoC, error) { return soc.New(cfg) }

// Assemble translates RV32I + L1.5-extension assembly into machine words.
func Assemble(src string, base uint32) ([]uint32, error) {
	return isa.Assemble(src, base)
}

// Timing analysis (internal/analysis).
type (
	// TimingBound is the safe Graham-style makespan bound of §4.2.
	TimingBound = analysis.Bound
)

// AnalyzeMakespan returns the safe makespan bound of the task on m cores
// under the given edge-cost function (RawCost for a conventional system,
// a ScheduleResult's Model.Weight() for the proposed one).
func AnalyzeMakespan(t *Task, m int, w EdgeWeight) (TimingBound, error) {
	return analysis.Makespan(t, m, w)
}

// EdgeWeight maps an edge to its communication cost in path computations.
type EdgeWeight = dag.EdgeWeight

// RawCost is the unassisted edge cost (the full μ).
func RawCost(e Edge) float64 { return dag.RawCost(e) }

// Kernel layer (internal/rtos): periodic DAG tasks executed by the
// FreeRTOS-like executive on the simulated SoC.
type (
	// KernelConfig configures the RTOS executive.
	KernelConfig = rtos.Config
	// KernelTask binds a DAG task to cycle-level period and deadline.
	KernelTask = rtos.TaskSpec
	// Kernel is the executive.
	Kernel = rtos.Kernel
	// JobRecord reports one job's release/finish/deadline outcome.
	JobRecord = rtos.JobRecord
)

// NewKernel builds the RTOS executive over a fresh SoC.
func NewKernel(cfg KernelConfig, tasks []KernelTask) (*Kernel, error) {
	return rtos.New(cfg, tasks)
}
