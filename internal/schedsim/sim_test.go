package schedsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"l15cache/internal/dag"
	"l15cache/internal/sched"
)

// rawPlatform is the degenerate platform with no cache effects at all:
// every edge costs its full μ and every node its full WCET.
type rawPlatform struct{}

func (rawPlatform) Name() string { return "raw" }
func (rawPlatform) ExecTime(v *dag.Node, warm bool, busyFrac float64) float64 {
	return v.WCET
}
func (rawPlatform) CommCost(e dag.Edge, producer *dag.Node, sameCore bool, busyFrac float64) float64 {
	return e.Cost
}
func (rawPlatform) Affinity() bool { return false }

func mustSchedule(t *testing.T, task *dag.Task) *sched.Result {
	t.Helper()
	res, err := sched.LongestPathFirst(task)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChainMakespanRaw(t *testing.T) {
	task := dag.Chain("c", 3, 2, 3, 0.5, 4096)
	alloc := mustSchedule(t, task)
	stats, err := Run(alloc, rawPlatform{}, Options{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Serial chain: 2 + (3+2) + (3+2) = 12 regardless of core count.
	if got := stats[0].Makespan; got != 12 {
		t.Errorf("makespan = %g, want 12", got)
	}
	if stats[0].Comm != 6 || stats[0].Exec != 6 {
		t.Errorf("comm/exec = %g/%g, want 6/6", stats[0].Comm, stats[0].Exec)
	}
}

func TestChainMakespanProposed(t *testing.T) {
	task := dag.Chain("c", 3, 2, 3, 0.5, 4096) // δ=4096 ⇒ 2 ways needed
	prop, err := NewProposed(task, 16, 2048)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(prop.Alloc, prop, Options{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Full allocation halves each edge (α=0.5): 2 + (1.5+2)×2 = 9.
	if got := stats[0].Makespan; got != 9 {
		t.Errorf("makespan = %g, want 9", got)
	}
}

func TestForkJoinParallelism(t *testing.T) {
	task := dag.ForkJoin("fj", 4, 2, 0, 0.5, 0) // no communication
	alloc := mustSchedule(t, task)

	one, err := Run(alloc, rawPlatform{}, Options{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(alloc, rawPlatform{}, Options{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 6 nodes × 2 time units serial = 12; with 4 cores the branch layer
	// runs fully parallel: 2 + 2 + 2 = 6.
	if one[0].Makespan != 12 {
		t.Errorf("1-core makespan = %g, want 12", one[0].Makespan)
	}
	if four[0].Makespan != 6 {
		t.Errorf("4-core makespan = %g, want 6", four[0].Makespan)
	}
}

func TestPriorityRespected(t *testing.T) {
	// Two ready branches, one core: the higher-priority branch must run
	// first. Build src -> {a, b} -> sink; give a the longer path so the
	// scheduler prioritises it.
	task := dag.New("prio", 100, 100)
	src := task.AddNode("src", 1, 0)
	a := task.AddNode("a", 5, 0)
	b := task.AddNode("b", 1, 0)
	sink := task.AddNode("sink", 1, 0)
	task.MustAddEdge(src, a, 0, 0.5)
	task.MustAddEdge(src, b, 0, 0.5)
	task.MustAddEdge(a, sink, 0, 0.5)
	task.MustAddEdge(b, sink, 0, 0.5)
	alloc := mustSchedule(t, task)
	if task.Node(a).Priority <= task.Node(b).Priority {
		t.Fatalf("scheduler should prioritise a: a=%d b=%d",
			task.Node(a).Priority, task.Node(b).Priority)
	}
	stats, err := Run(alloc, rawPlatform{}, Options{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One core, serial: 1 + 5 + 1 + 1 = 8 either way; but with two cores
	// makespan is 1 + 5 + 1 = 7 only if a dispatches first.
	if stats[0].Makespan != 8 {
		t.Errorf("1-core makespan = %g, want 8", stats[0].Makespan)
	}
	stats2, err := Run(alloc, rawPlatform{}, Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats2[0].Makespan != 7 {
		t.Errorf("2-core makespan = %g, want 7", stats2[0].Makespan)
	}
}

func TestWarmupLowersCMPMakespan(t *testing.T) {
	task := dag.Fig1Example()
	alloc := mustSchedule(t, task)
	stats, err := Run(alloc, CMPL1(), Options{Cores: 4, Instances: 5})
	if err != nil {
		t.Fatal(err)
	}
	cold, warm := stats[0].Makespan, stats[4].Makespan
	if warm >= cold {
		t.Errorf("warm instance (%g) should beat cold (%g) on CMP|L1", warm, cold)
	}
	// The proposed system is warm-up free: all instances identical.
	prop, err := NewProposed(task.Clone(), 16, 2048)
	if err != nil {
		t.Fatal(err)
	}
	pstats, err := Run(prop.Alloc, prop, Options{Cores: 4, Instances: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pstats); i++ {
		if pstats[i].Makespan != pstats[0].Makespan {
			t.Errorf("Prop instance %d makespan %g != first %g",
				i, pstats[i].Makespan, pstats[0].Makespan)
		}
	}
}

func TestProposedBeatsRawOnCommHeavyTask(t *testing.T) {
	task := dag.Chain("heavy", 8, 1, 10, 0.6, 4096)
	raw := mustSchedule(t, task.Clone())
	rawStats, err := Run(raw, rawPlatform{}, Options{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	prop, err := NewProposed(task, 16, 2048)
	if err != nil {
		t.Fatal(err)
	}
	propStats, err := Run(prop.Alloc, prop, Options{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if propStats[0].Makespan >= rawStats[0].Makespan {
		t.Errorf("Prop %g should beat raw %g on a communication-heavy chain",
			propStats[0].Makespan, rawStats[0].Makespan)
	}
}

// TestRunErrors checks that out-of-range counts are errors, not panics.
func TestRunErrors(t *testing.T) {
	alloc := mustSchedule(t, dag.Fig1Example())
	for _, opt := range []Options{
		{Cores: -2},
		{Cores: -8, Instances: 3},
		{Instances: -1},
		{Instances: -100, Cores: 4},
	} {
		if stats, err := Run(alloc, rawPlatform{}, opt); err == nil {
			t.Errorf("Run(%+v) = %v, want an error", opt, stats)
		}
	}
}

func randomTask(r *rand.Rand) *dag.Task {
	t := dag.New("rand", 1000, 1000)
	src := t.AddNode("src", 1+r.Float64()*5, int64(r.Intn(16*1024)))
	prev := []dag.NodeID{src}
	for l, layers := 0, 2+r.Intn(4); l < layers; l++ {
		cur := make([]dag.NodeID, 1+r.Intn(4))
		for i := range cur {
			cur[i] = t.AddNode("n", 1+r.Float64()*5, int64(r.Intn(16*1024)))
			t.MustAddEdge(prev[r.Intn(len(prev))], cur[i], 1+r.Float64()*3, 0.1+r.Float64()*0.6)
		}
		prev = cur
	}
	sink := t.AddNode("sink", 1, 0)
	for _, n := range t.Nodes {
		if n.ID != sink && len(t.Succ(n.ID)) == 0 {
			t.MustAddEdge(n.ID, sink, 1, 0.5)
		}
	}
	return t
}

// Property: the makespan is bounded below by the platform's critical path
// and by total work / m, and bounded above by fully serial execution.
func TestQuickMakespanBounds(t *testing.T) {
	f := func(seed int64, mr uint8) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomTask(r)
		m := int(mr%8) + 1
		alloc, err := sched.LongestPathFirst(task)
		if err != nil {
			return false
		}
		stats, err := Run(alloc, rawPlatform{}, Options{Cores: m})
		if err != nil {
			return false
		}
		ms := stats[0].Makespan
		cp := task.CriticalPathLength(dag.RawCost)
		var serial float64
		for _, n := range task.Nodes {
			serial += n.WCET
		}
		for _, e := range task.Edges {
			serial += e.Cost
		}
		return ms >= cp-1e-9 && ms <= serial+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: adding cores never increases the raw-platform makespan on these
// priority-scheduled DAGs when going from 1 core (serial) to many.
func TestQuickOneCoreIsWorst(t *testing.T) {
	f := func(seed int64, mr uint8) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomTask(r)
		m := int(mr%7) + 2
		alloc, err := sched.LongestPathFirst(task)
		if err != nil {
			return false
		}
		one, err := Run(alloc, rawPlatform{}, Options{Cores: 1})
		if err != nil {
			return false
		}
		many, err := Run(alloc, rawPlatform{}, Options{Cores: m})
		if err != nil {
			return false
		}
		// Note: list scheduling anomalies can make *some* core-count
		// increases hurt, but the 1-core schedule is fully serial and
		// cannot be beaten downward by more cores... it CAN be equal.
		return many[0].Makespan <= one[0].Makespan+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the proposed platform never yields a longer makespan than the
// raw platform under identical priorities (communication only shrinks).
func TestQuickProposedNoWorseThanRaw(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomTask(r)
		prop, err := NewProposed(task, 16, 2048)
		if err != nil {
			return false
		}
		rawStats, err := Run(prop.Alloc, rawPlatform{}, Options{Cores: 4})
		if err != nil {
			return false
		}
		propStats, err := Run(prop.Alloc, prop, Options{Cores: 4})
		if err != nil {
			return false
		}
		// Same priorities, edge costs pointwise <= raw. List-scheduling
		// anomalies could in principle reorder, but with identical
		// priorities and dispatch rules the proposed system's pointwise
		// cheaper fetches keep every start time no later (verified
		// empirically over the seed space).
		return propStats[0].Makespan <= rawStats[0].Makespan+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
