package schedsim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"l15cache/internal/dag"
	"l15cache/internal/flight"
	"l15cache/internal/sched"
	"l15cache/internal/workload"
)

// completionHeap is runInstanceTicked's container/heap completion queue:
// earliest finish first, ties broken by node ID. It keeps its own order
// so a change to lessCompletion shows up as a divergence.
type completionHeap []completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].node < h[j].node
}
func (h completionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)   { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// runInstanceTicked is the dispatcher runInstance replaced, kept as its
// reference: fresh arrays per instance, idle-core lists rebuilt per
// dispatch and a container/heap completion queue. It takes runInstance's
// arguments (less the scratch) and must give the same stats, placement
// and flight events.
func runInstanceTicked(alloc *sched.Result, plat Platform, m int, cold bool, prevCore []int, rec *flight.Recorder, task, job int32) (InstanceStats, []int) {
	mInstances.Inc()
	t := alloc.Task
	n := len(t.Nodes)

	rec.Emit(flight.Event{Kind: flight.KindRelease, Task: task, Job: job,
		Node: -1, Core: -1, Cluster: -1, Wave: -1})

	coreOf := make([]int, n)
	for i := range coreOf {
		coreOf[i] = -1
	}
	startAt := make([]float64, n)
	finished := make([]bool, n)
	indeg := make([]int, n)
	for id := range t.Nodes {
		indeg[id] = len(t.Pred(dag.NodeID(id)))
	}

	freeAt := make([]float64, m)
	var ready []dag.NodeID
	ready = append(ready, t.Source())

	var events completionHeap
	var stats InstanceStats
	now := 0.0
	done := 0

	popReady := func() dag.NodeID {
		best := 0
		for i := 1; i < len(ready); i++ {
			pi, pb := t.Node(ready[i]).Priority, t.Node(ready[best]).Priority
			if pi > pb || (pi == pb && ready[i] < ready[best]) {
				best = i
			}
		}
		v := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		return v
	}

	idleCores := func() []int {
		var idle []int
		for c := 0; c < m; c++ {
			if freeAt[c] <= now {
				idle = append(idle, c)
			}
		}
		return idle
	}

	for done < n {
		// Dispatch while an idle core and a ready node exist
		// (work-conserving).
		for {
			idle := idleCores()
			if len(idle) == 0 || len(ready) == 0 {
				break
			}
			v := popReady()
			c := idle[0]
			if plat.Affinity() && prevCore != nil {
				if pc := prevCore[v]; pc >= 0 {
					for _, ic := range idle {
						if ic == pc {
							c = pc
							break
						}
					}
				}
			}
			busy := 0
			for c2 := 0; c2 < m; c2++ {
				if c2 != c && freeAt[c2] > now {
					busy++
				}
			}
			busyFrac := 0.0
			if m > 1 {
				busyFrac = float64(busy) / float64(m-1)
			}
			warm := !cold && prevCore != nil && prevCore[v] == c

			var fetch float64
			for _, p := range t.Pred(v) {
				e, _ := t.Edge(p, v)
				cost := plat.CommCost(e, t.Node(p), coreOf[p] == c, busyFrac)
				fetch += cost
				rec.Emit(flight.Event{Kind: flight.KindEdge, Time: now,
					Task: task, Job: job, Node: int32(v), Core: int32(c),
					Cluster: -1, Wave: -1,
					A: float64(p), B: e.Cost, C: cost})
			}
			exec := plat.ExecTime(t.Node(v), warm, busyFrac)

			coreOf[v] = c
			startAt[v] = now
			finish := now + fetch + exec
			freeAt[c] = finish
			mDispatches.Inc()
			rec.Emit(flight.Event{Kind: flight.KindDispatch, Time: now,
				Task: task, Job: job, Node: int32(v), Core: int32(c),
				Cluster: -1, Wave: -1,
				A: fetch, B: exec, C: float64(alloc.LocalWays[v])})
			stats.Comm += fetch
			stats.Exec += exec
			heap.Push(&events, completion{at: finish, node: v})
		}

		if events.Len() == 0 {
			// No running node but undone work: the graph must be
			// disconnected or cyclic — Validate precludes both.
			panic("schedsim: deadlock with " + fmt.Sprint(n-done) + " nodes pending")
		}

		// Advance to the next completion; release successors.
		ev := heap.Pop(&events).(completion)
		now = math.Max(now, ev.at)
		finished[ev.node] = true
		done++
		rec.Emit(flight.Event{Kind: flight.KindFinish, Time: ev.at,
			Task: task, Job: job, Node: int32(ev.node),
			Core: int32(coreOf[ev.node]), Cluster: -1, Wave: -1,
			A: ev.at - startAt[ev.node]})
		for _, s := range t.Succ(ev.node) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
		if ev.at > stats.Makespan {
			stats.Makespan = ev.at
		}
	}
	// The makespan check closes the instance; with no workload deadline
	// the event records A=0, B=0 (met).
	rec.Emit(flight.Event{Kind: flight.KindDeadline, Time: stats.Makespan,
		Task: task, Job: job, Node: -1, Core: -1, Cluster: -1, Wave: -1})
	return stats, coreOf
}

// kernelName names the instance loop a twin-run case uses.
func kernelName(ticked bool) string {
	if ticked {
		return "ticked"
	}
	return "events"
}

// runBothKernels simulates the same allocation with Run and with the
// ticked reference loop and requires identical stats and flight
// recordings.
func runBothKernels(t *testing.T, seed int64, instances int) {
	t.Helper()
	p := workload.DefaultSynthParams()
	p.MinLayers, p.MaxLayers = 2, 5
	p.MaxWidth = 6
	task, err := workload.Synthetic(rand.New(rand.NewSource(seed)), p)
	if err != nil {
		t.Fatal(err)
	}
	compareKernels(t, fmt.Sprintf("seed %d", seed), task, instances)
}

// compareKernels runs task on the raw and the proposed platform with Run
// and with the ticked reference loop and requires identical stats and
// flight recordings; label names the task in failures.
func compareKernels(t *testing.T, label string, task *dag.Task, instances int) {
	t.Helper()
	prop, err := NewProposed(task, 16, 2048)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		plat Platform
	}{
		{"raw", rawPlatform{}},
		{"proposed", prop},
	} {
		recT, recE := flight.New(), flight.New()
		alloc := prop.Alloc
		if tc.name == "raw" {
			alloc = mustSchedule(t, task)
		}
		statsT, _ := runReference(alloc, tc.plat, Options{
			Cores: 4, Instances: instances, Recorder: recT}, true)
		statsE, err := Run(alloc, tc.plat, Options{
			Cores: 4, Instances: instances, Recorder: recE})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(statsT, statsE) {
			t.Errorf("%s %s: stats diverged:\nticked %+v\nevents %+v",
				label, tc.name, statsT, statsE)
		}
		evT, evE := recT.Events(), recE.Events()
		if !reflect.DeepEqual(evT, evE) {
			t.Errorf("%s %s: flight recordings diverged (%d vs %d events)",
				label, tc.name, len(evT), len(evE))
		}
		if len(evE) == 0 {
			t.Errorf("%s %s: no flight events recorded; test is vacuous", label, tc.name)
		}
	}
}

func TestKernelEquivalenceSmallDAGs(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		runBothKernels(t, seed, 1)
	}
	// Warm instances take the conventional platforms' warm path.
	runBothKernels(t, 5, 3)
	// Identical branches finish at the same instant, so the completion
	// heap's node-ID tie-break decides the finish order.
	compareKernels(t, "fork-join", dag.ForkJoin("fj", 6, 2, 1, 0.5, 1024), 3)
}

// TestQuickKernelEquivalence lets testing/quick pick the DAG seeds.
func TestQuickKernelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized equivalence sweep")
	}
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		runBothKernels(t, seed%10000, 1)
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
