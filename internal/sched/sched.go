// Package sched implements the paper's DAG scheduling with the L1.5 Cache
// (Algorithm 1) together with the baseline priority-assignment policies the
// evaluation compares against.
//
// Algorithm 1 walks the DAG wave by wave from the source. At the start of
// each wave the local way groups allocated to the previous wave turn global
// (their dependent data becomes readable by every successor) and the way
// groups that were already global are freed. Within a wave, nodes are
// examined in decreasing λ_j (length of the longest path through the node,
// recomputed by dynamic programming with ETM-reduced edge costs after every
// wave that granted ways) and receive
//
//	F(v_j, Ω, ζ) = min(⌈δ_j/κ⌉, ζ − Σ_{ω∈Ω} ω.size)
//
// local ways plus the next lower priority level. The result is a complete
// L1.5 configuration and priority map for the task.
package sched

import (
	"fmt"
	"sort"

	"l15cache/internal/dag"
	"l15cache/internal/etm"
	"l15cache/internal/flight"
	"l15cache/internal/metrics"
)

// Scheduler counters on the default registry. Atomic increments, so the
// experiment harnesses may schedule from many goroutines concurrently.
var (
	mSchedules = metrics.Default.Counter("sched.schedules")
	mWaves     = metrics.Default.Counter("sched.waves")
	mNodes     = metrics.Default.Counter("sched.nodes_examined")
	mWayGrants = metrics.Default.Counter("sched.way_grants")
	mLambda    = metrics.Default.Counter("sched.lambda_recomputes")
)

// WayGroup is ω_x of Alg. 1: a group of L1.5 ways bound to a node.
type WayGroup struct {
	Size   int        // ω_x.size: number of ways in the group
	Global bool       // ω_x.type: local (false) or global (true)
	Owner  dag.NodeID // ω_x.owner
}

// Result is the output of a scheduling policy: an L1.5 configuration and a
// priority for every node. Priorities are also written into the task's
// nodes (higher value dispatches first).
type Result struct {
	Task     *dag.Task
	Zeta     int   // ζ: total L1.5 ways available to the task
	WayBytes int64 // κ: capacity of one way

	// LocalWays[v] is the number of local L1.5 ways Alg. 1 granted v to
	// hold its dependent data. Nodes absent from the map received none.
	LocalWays map[dag.NodeID]int

	// Waves records the examination fronts, source first. Wave k+1 holds
	// nodes whose predecessors were all examined by wave k.
	Waves [][]dag.NodeID

	// Model is the ETM view of the task under LocalWays; its Weight() is
	// the edge-cost function the simulator uses for the proposed system.
	Model *etm.Model
}

// EdgeCost returns the communication cost of edge e under this result's way
// allocation (the full μ for policies that allocate no ways).
func (r *Result) EdgeCost(e dag.Edge) float64 { return r.Model.EdgeCost(e) }

// PriorityOrder returns the node IDs from highest to lowest priority.
func (r *Result) PriorityOrder() []dag.NodeID {
	ids := make([]dag.NodeID, len(r.Task.Nodes))
	for i := range ids {
		ids[i] = dag.NodeID(i)
	}
	sort.SliceStable(ids, func(a, b int) bool {
		return r.Task.Node(ids[a]).Priority > r.Task.Node(ids[b]).Priority
	})
	return ids
}

// L15Schedule runs Algorithm 1 on the task with an L1.5 Cache of zeta ways
// of wayBytes capacity each. It validates the task, then returns the way
// allocation and writes node priorities.
func L15Schedule(t *dag.Task, zeta int, wayBytes int64) (*Result, error) {
	return L15ScheduleRec(t, zeta, wayBytes, nil, 0)
}

// L15ScheduleRec is L15Schedule with a flight recorder attached: every
// wave transition, λ_j recomputation, F(v_j, Ω, ζ) grant and local→global
// conversion of the run is recorded under task index task. A nil recorder
// makes it identical to L15Schedule.
func L15ScheduleRec(t *dag.Task, zeta int, wayBytes int64, rec *flight.Recorder, task int) (*Result, error) {
	if zeta < 0 {
		return nil, fmt.Errorf("sched: negative way count %d", zeta)
	}
	if wayBytes <= 0 {
		return nil, fmt.Errorf("sched: non-positive way capacity %d", wayBytes)
	}
	return waveSchedule(t, zeta, wayBytes, true, rec, int32(task))
}

// LongestPathFirst assigns priorities with the identical wave traversal and
// longest-path-first rule but no L1.5 ways — the intra-task priority
// assignment of He et al. [8] that the baseline systems use. Edge costs stay
// at their raw μ.
func LongestPathFirst(t *dag.Task) (*Result, error) {
	return waveSchedule(t, 0, etm.DefaultWayBytes, false, nil, 0)
}

// LongestPathFirstRec is LongestPathFirst with a flight recorder
// attached (see L15ScheduleRec).
func LongestPathFirstRec(t *dag.Task, rec *flight.Recorder, task int) (*Result, error) {
	return waveSchedule(t, 0, etm.DefaultWayBytes, false, rec, int32(task))
}

// waveSchedule is the common skeleton of Alg. 1. When allocate is false the
// way-management lines (5-8, 14-16) are skipped, leaving the pure
// longest-path-first priority assignment. A non-nil rec receives the
// planning-time flight events (Wave = wave index, Time = wave index in
// planning steps), stamped with task.
func waveSchedule(t *dag.Task, zeta int, wayBytes int64, allocate bool, rec *flight.Recorder, task int32) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Task:      t,
		Zeta:      zeta,
		WayBytes:  wayBytes,
		LocalWays: make(map[dag.NodeID]int),
		Model:     etm.NewModel(t, wayBytes),
	}

	mSchedules.Inc()
	allocFlag := 0.0
	if allocate {
		allocFlag = 1
	}
	rec.Emit(flight.Event{Kind: flight.KindSchedStart, Task: task,
		Job: -1, Node: -1, Core: -1, Cluster: -1, Wave: -1,
		A: float64(zeta), B: float64(wayBytes), C: allocFlag})
	examined := make([]bool, len(t.Nodes))
	remaining := make([]int, len(t.Nodes)) // unexamined predecessors per node
	for id := range t.Nodes {
		remaining[id] = len(t.Pred(dag.NodeID(id)))
	}
	var omega []WayGroup // Ω
	used := 0            // ΣΩ, maintained incrementally
	pri := len(t.Nodes)  // pri = |V_i|
	var pbuf dag.PathBuf // scratch reused by every λ recomputation
	lambda := t.LongestThroughInto(dag.RawCost, &pbuf)
	maxLambda := maxOf(lambda)
	weight := res.Model.Weight()

	waveIdx := int32(0)
	q := []dag.NodeID{t.Source()} // Q = {v_src}
	for len(q) > 0 {
		if allocate {
			// Lines 3-10: previous wave's local groups become
			// global (handing the data to the successors); stale
			// global groups free their ways.
			next := omega[:0]
			for _, w := range omega {
				if !w.Global {
					w.Global = true
					if sucs := t.Succ(w.Owner); len(sucs) > 0 {
						w.Owner = sucs[0]
					}
					rec.Emit(flight.Event{Kind: flight.KindGVConvert,
						Time: float64(waveIdx), Task: task, Job: -1,
						Node: int32(w.Owner), Core: -1, Cluster: -1,
						Wave: waveIdx, A: float64(w.Size)})
					next = append(next, w)
				} else {
					used -= w.Size
				}
			}
			omega = next
		}

		// Lines 11-19: examine the wave, longest path first.
		wave := append([]dag.NodeID(nil), q...)
		sort.SliceStable(wave, func(a, b int) bool {
			if lambda[wave[a]] != lambda[wave[b]] {
				return lambda[wave[a]] > lambda[wave[b]]
			}
			return wave[a] < wave[b] // deterministic tie-break
		})
		rec.Emit(flight.Event{Kind: flight.KindWave,
			Time: float64(waveIdx), Task: task, Job: -1, Node: -1,
			Core: -1, Cluster: -1, Wave: waveIdx,
			A: float64(len(wave)), B: float64(used)})
		granted := false
		for _, vj := range wave {
			// Local ways hold dependent data for suc(v_j); a node
			// with no successors needs none (Fig. 6: the sink only
			// reads global ways).
			if allocate && len(t.Succ(vj)) > 0 && used < zeta {
				size := fWays(t.Node(vj), res.Model, used, zeta)
				if size > 0 {
					omega = append(omega, WayGroup{Size: size, Owner: vj})
					used += size
					res.LocalWays[vj] = size
					res.Model.Ways[vj] = size
					granted = true
					mWayGrants.Add(uint64(size))
					rec.Emit(flight.Event{Kind: flight.KindPlanWays,
						Time: float64(waveIdx), Task: task, Job: -1,
						Node: int32(vj), Core: -1, Cluster: -1,
						Wave: waveIdx, A: float64(size),
						B: float64(used), C: float64(zeta)})
				}
			}
			t.Node(vj).Priority = pri
			pri--
			examined[vj] = true
			for _, s := range t.Succ(vj) {
				remaining[s]--
			}
		}
		res.Waves = append(res.Waves, wave)
		mWaves.Inc()
		mNodes.Add(uint64(len(wave)))

		// Line 20: refresh λ_j under the new allocation. Grants are
		// the only change to Model.Ways, and etm.Cost with no ways is
		// the raw μ, so a wave without grants leaves λ bit-identical.
		if granted {
			lambda = t.LongestThroughInto(weight, &pbuf)
			maxLambda = maxOf(lambda)
		}
		mLambda.Inc()
		rec.Emit(flight.Event{Kind: flight.KindLambda,
			Time: float64(waveIdx), Task: task, Job: -1, Node: -1,
			Core: -1, Cluster: -1, Wave: waveIdx, A: maxLambda})
		waveIdx++

		// Line 21: Q := unexamined nodes whose predecessors are all
		// examined (remaining counter at zero).
		q = q[:0]
		for id := range t.Nodes {
			v := dag.NodeID(id)
			if !examined[v] && remaining[v] == 0 {
				q = append(q, v)
			}
		}
	}
	return res, nil
}

// maxOf returns the largest λ_j, or 0 for an empty task.
func maxOf(lambda []float64) float64 {
	m := 0.0
	for _, l := range lambda {
		if l > m {
			m = l
		}
	}
	return m
}

// fWays is F(v_j, Ω, ζ) = min(⌈δ_j/κ⌉, ζ − ΣΩ); used is ΣΩ.
func fWays(v *dag.Node, m *etm.Model, used, zeta int) int {
	need := etm.WaysNeeded(v.Data, m.WayBytes)
	free := zeta - used
	if need < free {
		return need
	}
	return free
}

// TopologicalPriority assigns priorities by plain topological order
// (earlier nodes higher), the naive baseline that ignores path lengths
// entirely. It allocates no L1.5 ways.
func TopologicalPriority(t *dag.Task) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	order, err := t.TopoOrder()
	if err != nil {
		return nil, err
	}
	pri := len(t.Nodes)
	for _, id := range order {
		t.Node(id).Priority = pri
		pri--
	}
	return &Result{
		Task:      t,
		WayBytes:  etm.DefaultWayBytes,
		LocalWays: map[dag.NodeID]int{},
		Model:     etm.NewModel(t, etm.DefaultWayBytes),
	}, nil
}
