package sched

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"l15cache/internal/dag"
	"l15cache/internal/etm"
	"l15cache/internal/flight"
	"l15cache/internal/workload"
)

// waveScheduleEveryWave is waveSchedule with Alg. 1's line 20 run after
// every wave, granted ways or not: the reference the skip is held to.
func waveScheduleEveryWave(t *dag.Task, zeta int, wayBytes int64, allocate bool, rec *flight.Recorder, task int32) (*Result, error) {
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
	allocFlag := 0.0
	if allocate {
		allocFlag = 1
	}
	rec.Emit(flight.Event{Kind: flight.KindSchedStart, Task: task,
		Job: -1, Node: -1, Core: -1, Cluster: -1, Wave: -1,
		A: float64(zeta), B: float64(wayBytes), C: allocFlag})
	examined := make([]bool, len(t.Nodes))
	remaining := make([]int, len(t.Nodes))
	for id := range t.Nodes {
		remaining[id] = len(t.Pred(dag.NodeID(id)))
	}
	var omega []WayGroup
	used := 0
	pri := len(t.Nodes)
	lambda := t.LongestThrough(dag.RawCost)
	waveIdx := int32(0)
	q := []dag.NodeID{t.Source()}
	for len(q) > 0 {
		if allocate {
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
		wave := append([]dag.NodeID(nil), q...)
		sort.SliceStable(wave, func(a, b int) bool {
			if lambda[wave[a]] != lambda[wave[b]] {
				return lambda[wave[a]] > lambda[wave[b]]
			}
			return wave[a] < wave[b]
		})
		rec.Emit(flight.Event{Kind: flight.KindWave,
			Time: float64(waveIdx), Task: task, Job: -1, Node: -1,
			Core: -1, Cluster: -1, Wave: waveIdx,
			A: float64(len(wave)), B: float64(used)})
		for _, vj := range wave {
			if allocate && len(t.Succ(vj)) > 0 && used < zeta {
				size := fWays(t.Node(vj), res.Model, used, zeta)
				if size > 0 {
					omega = append(omega, WayGroup{Size: size, Owner: vj})
					used += size
					res.LocalWays[vj] = size
					res.Model.Ways[vj] = size
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
		lambda = t.LongestThrough(res.Model.Weight())
		maxLambda := 0.0
		for _, l := range lambda {
			if l > maxLambda {
				maxLambda = l
			}
		}
		rec.Emit(flight.Event{Kind: flight.KindLambda,
			Time: float64(waveIdx), Task: task, Job: -1, Node: -1,
			Core: -1, Cluster: -1, Wave: waveIdx, A: maxLambda})
		waveIdx++
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

// scheduleOutcome is everything a schedule run leaves behind that the
// λ skip could change.
type scheduleOutcome struct {
	priorities []int
	waves      [][]dag.NodeID
	localWays  map[dag.NodeID]int
	recording  []byte
}

func outcome(task *dag.Task, res *Result, rec *flight.Recorder) scheduleOutcome {
	o := scheduleOutcome{waves: res.Waves, localWays: res.LocalWays,
		recording: flight.AppendJSONL(nil, rec.Snapshot())}
	for _, n := range task.Nodes {
		o.priorities = append(o.priorities, n.Priority)
	}
	return o
}

// TestLambdaSkipMatchesEveryWave holds waveSchedule, which skips line 20
// after a wave that granted no ways, to the reference that runs it after
// every wave: priorities, waves, local ways and the encoded flight
// recording must be byte-equal, and the line-20 counter still counts every
// wave, for Alg. 1 at several ζ and for
// longest-path-first.
func TestLambdaSkipMatchesEveryWave(t *testing.T) {
	var tasks []*dag.Task
	tasks = append(tasks, dag.Fig1Example(), dag.Chain("c", 5, 2, 3, 0.5, 4096),
		dag.ForkJoin("fj", 6, 2, 1, 0.5, 2048))
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks = append(tasks, randomTask(r))
		synth, err := workload.Synthetic(r, workload.DefaultSynthParams())
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, synth)
	}
	type policy struct {
		name     string
		zeta     int
		allocate bool
	}
	policies := []policy{{"lpf", 0, false}}
	for _, zeta := range []int{0, 1, 16, 64} {
		policies = append(policies, policy{fmt.Sprintf("l15/zeta=%d", zeta), zeta, true})
	}
	for i, task := range tasks {
		for _, p := range policies {
			gotTask, wantTask := task.Clone(), task.Clone()
			gotRec, wantRec := flight.NewCap(1<<12), flight.NewCap(1<<12)
			var got *Result
			var err error
			recomputes := mLambda.Load()
			if p.allocate {
				got, err = L15ScheduleRec(gotTask, p.zeta, 2048, gotRec, i)
			} else {
				got, err = LongestPathFirstRec(gotTask, gotRec, i)
			}
			if err != nil {
				t.Fatal(err)
			}
			// sched.lambda_recomputes counts line-20 steps, one per wave.
			if n := mLambda.Load() - recomputes; n != uint64(len(got.Waves)) {
				t.Errorf("task %d %s: sched.lambda_recomputes advanced %d, want %d waves", i, p.name, n, len(got.Waves))
			}
			want, err := waveScheduleEveryWave(wantTask, p.zeta, wayBytesFor(p.allocate), p.allocate, wantRec, int32(i))
			if err != nil {
				t.Fatal(err)
			}
			g, w := outcome(gotTask, got, gotRec), outcome(wantTask, want, wantRec)
			if !reflect.DeepEqual(g.priorities, w.priorities) {
				t.Errorf("task %d %s: priorities %v, want %v", i, p.name, g.priorities, w.priorities)
			}
			if !reflect.DeepEqual(g.waves, w.waves) {
				t.Errorf("task %d %s: waves %v, want %v", i, p.name, g.waves, w.waves)
			}
			if !reflect.DeepEqual(g.localWays, w.localWays) {
				t.Errorf("task %d %s: local ways %v, want %v", i, p.name, g.localWays, w.localWays)
			}
			if !bytes.Equal(g.recording, w.recording) {
				t.Errorf("task %d %s: flight recordings differ:\n%s\nwant\n%s", i, p.name, g.recording, w.recording)
			}
		}
	}
}

// wayBytesFor is the κ each public entry point passes to waveSchedule.
func wayBytesFor(allocate bool) int64 {
	if allocate {
		return 2048
	}
	return etm.DefaultWayBytes
}
