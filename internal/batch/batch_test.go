package batch

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/inst"
	"repro/internal/pool"
	"repro/internal/sim"
)

// testJobs builds a mixed batch from the instance generator: feasible
// instances expected to meet plus infeasible ones capped by a small
// segment budget, so the batch exercises both the met and the
// budget-tripped paths.
func testJobs(t testing.TB, seed int64) []Job {
	t.Helper()
	g := inst.NewGen(seed)
	meet := sim.DefaultSettings()
	meet.MaxSegments = 120_000_000
	miss := sim.DefaultSettings()
	miss.MaxSegments = 200_000

	var jobs []Job
	add := func(in inst.Instance, s sim.Settings) {
		jobs = append(jobs, Job{
			A:        sim.AgentSpec{Attrs: in.AgentA(), Prog: core.Program(core.Compact(), nil), Radius: in.R},
			B:        sim.AgentSpec{Attrs: in.AgentB(), Prog: core.Program(core.Compact(), nil), Radius: in.R},
			Settings: s,
		})
	}
	for _, c := range []inst.Class{
		inst.ClassMirrorInterior, inst.ClassLatecomer,
		inst.ClassClockDrift, inst.ClassRotatedDelayed,
	} {
		for _, in := range g.DrawN(c, 3) {
			add(in, meet)
		}
	}
	for _, in := range g.DrawN(inst.ClassInfeasibleShift, 4) {
		add(in, miss)
	}
	return jobs
}

// TestParallelMatchesSerial is the core determinism assertion: the same
// batch run serially and with 8 workers must produce identical results
// — MeetTime compared exactly in double-double precision, and every
// other field (MinGap, Segments, StopReason, end positions) equal too.
func TestParallelMatchesSerial(t *testing.T) {
	serial, sst := Run(testJobs(t, 7), 1)
	par, pst := Run(testJobs(t, 7), 8)
	if len(serial) != len(par) {
		t.Fatalf("length mismatch: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		s, p := serial[i], par[i]
		if s.MeetTime != p.MeetTime { // dd.T exact comparison
			t.Errorf("job %d MeetTime: serial %v parallel %v", i, s.MeetTime, p.MeetTime)
		}
		if s.MinGap != p.MinGap {
			t.Errorf("job %d MinGap: %v vs %v", i, s.MinGap, p.MinGap)
		}
		if s.Segments != p.Segments {
			t.Errorf("job %d Segments: %d vs %d", i, s.Segments, p.Segments)
		}
		if s.Reason != p.Reason {
			t.Errorf("job %d StopReason: %v vs %v", i, s.Reason, p.Reason)
		}
		if !reflect.DeepEqual(s, p) {
			t.Errorf("job %d results differ:\nserial:   %v\nparallel: %v", i, s, p)
		}
	}
	// Aggregates are folded serially, so they must match except for the
	// worker count actually used.
	sst.Workers, pst.Workers = 0, 0
	if sst != pst {
		t.Errorf("stats differ: serial %+v parallel %+v", sst, pst)
	}
}

// TestStatsAccounting recomputes the aggregate from the per-job results
// and checks the serial fold.
func TestStatsAccounting(t *testing.T) {
	res, st := Run(testJobs(t, 11), 4)
	if st.Jobs != len(res) {
		t.Fatalf("Jobs = %d, want %d", st.Jobs, len(res))
	}
	met, segs, simTime := 0, int64(0), 0.0
	for _, r := range res {
		if r.Met {
			met++
		}
		segs += int64(r.Segments)
		simTime += r.EndTime.Float64()
	}
	if st.Met != met || st.Segments != segs || st.SimTime != simTime {
		t.Errorf("stats %+v, recomputed met=%d segs=%d time=%g", st, met, segs, simTime)
	}
	if st.Met == 0 {
		t.Error("no job met — batch not exercising the meet path")
	}
	if st.Met == st.Jobs {
		t.Error("every job met — batch not exercising the budget path")
	}
}

// TestShortBudgetDoesNotWedgePool puts a job with a tiny segment budget
// in the middle of a batch: it must stop with ReasonMaxSegments while
// the rest of the pool drains normally.
func TestShortBudgetDoesNotWedgePool(t *testing.T) {
	jobs := testJobs(t, 3)
	strangled := len(jobs) / 2
	s := jobs[strangled].Settings
	s.MaxSegments = 10
	jobs[strangled].Settings = s

	res, st := Run(jobs, 8)
	if got := res[strangled].Reason; got != sim.ReasonMaxSegments {
		t.Errorf("strangled job reason = %v, want max-segments", got)
	}
	if res[strangled].Segments > 10+1 {
		t.Errorf("strangled job consumed %d segments past its budget", res[strangled].Segments)
	}
	if st.Jobs != len(jobs) {
		t.Errorf("pool finished %d of %d jobs", st.Jobs, len(jobs))
	}
	for i, r := range res {
		if i != strangled && r.Reason == sim.ReasonMaxSegments && r.Segments == 0 {
			t.Errorf("job %d looks unexecuted: %v", i, r)
		}
	}
}

// TestDoCoversEveryIndexOnce hammers the claim counter of pool.Do, the
// primitive under Run, under -race: each index must be visited exactly
// once, with distinct indices written concurrently.
func TestDoCoversEveryIndexOnce(t *testing.T) {
	const n = 10_000
	visits := make([]int, n)
	pool.Do(n, 8, func(i int) { visits[i]++ })
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
	// Degenerate shapes must not hang or panic.
	pool.Do(0, 4, func(int) { t.Error("fn called for n=0") })
	pool.Do(3, 0, func(int) {})
}

// TestEmptyBatch pins the zero-job edge.
func TestEmptyBatch(t *testing.T) {
	res, st := Run(nil, 8)
	if len(res) != 0 || st.Jobs != 0 || st.Met != 0 {
		t.Errorf("empty batch: res=%v st=%+v", res, st)
	}
}

// memoJobs builds a batch where each underlying simulation appears
// several times under the same Key (duplicated parameter points, as a
// sweep revisiting a grid would produce).
func memoJobs(t testing.TB, seed int64, copies int, keyed bool) []Job {
	t.Helper()
	g := inst.NewGen(seed)
	set := sim.DefaultSettings()
	set.MaxSegments = 2_000_000
	var jobs []Job
	for _, c := range []inst.Class{inst.ClassLatecomer, inst.ClassClockDrift} {
		for _, in := range g.DrawN(c, 2) {
			for k := 0; k < copies; k++ {
				j := Job{
					A:        sim.AgentSpec{Attrs: in.AgentA(), Prog: core.Program(core.Compact(), nil), Radius: in.R},
					B:        sim.AgentSpec{Attrs: in.AgentB(), Prog: core.Program(core.Compact(), nil), Radius: in.R},
					Settings: set,
				}
				if keyed {
					j.Key = in
				}
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// TestMemoizationPreservesResults: keyed runs must return exactly what
// the same batch computes without memoization, for every worker count —
// the determinism guarantee extends to the dedup path.
func TestMemoizationPreservesResults(t *testing.T) {
	baseline, bst := Run(memoJobs(t, 21, 3, false), 1)
	if bst.Executed != bst.Jobs {
		t.Fatalf("unkeyed batch memoized: %+v", bst)
	}
	for _, workers := range []int{1, 2, 8} {
		got, st := Run(memoJobs(t, 21, 3, true), workers)
		if !reflect.DeepEqual(stripTraces(got), stripTraces(baseline)) {
			t.Fatalf("workers=%d: memoized results diverge from baseline", workers)
		}
		if st.Jobs != len(baseline) || st.Executed != len(baseline)/3 {
			t.Errorf("workers=%d: Jobs=%d Executed=%d, want %d and %d",
				workers, st.Jobs, st.Executed, len(baseline), len(baseline)/3)
		}
		// Aggregates fold over logical jobs, so they match the
		// memoization-free accounting exactly.
		if st.Met != bst.Met || st.Segments != bst.Segments || st.SimTime != bst.SimTime {
			t.Errorf("workers=%d: aggregates diverge: %+v vs %+v", workers, st, bst)
		}
	}
}

// stripTraces nils the (aliased) trace slices so DeepEqual compares the
// scalar outcome fields; traces are off in these settings anyway.
func stripTraces(rs []sim.Result) []sim.Result {
	out := make([]sim.Result, len(rs))
	for i, r := range rs {
		r.TraceA, r.TraceB = nil, nil
		out[i] = r
	}
	return out
}

// TestMemoizationMixedKeys: nil-keyed jobs never share, distinct keys
// never collide, and duplicates resolve to the first occurrence in
// input order.
func TestMemoizationMixedKeys(t *testing.T) {
	g := inst.NewGen(33)
	in := g.DrawN(inst.ClassLatecomer, 1)[0]
	set := sim.DefaultSettings()
	set.MaxSegments = 2_000_000
	mk := func(key any) Job {
		return Job{
			A:        sim.AgentSpec{Attrs: in.AgentA(), Prog: core.Program(core.Compact(), nil), Radius: in.R},
			B:        sim.AgentSpec{Attrs: in.AgentB(), Prog: core.Program(core.Compact(), nil), Radius: in.R},
			Settings: set,
			Key:      key,
		}
	}
	jobs := []Job{mk(nil), mk("a"), mk(nil), mk("a"), mk("b")}
	res, st := Run(jobs, 4)
	if st.Executed != 4 { // two nil + "a" + "b"
		t.Fatalf("Executed = %d, want 4", st.Executed)
	}
	if !reflect.DeepEqual(res[1], res[3]) {
		t.Errorf("duplicate key results differ")
	}
	for i, r := range res {
		if !r.Met {
			t.Errorf("job %d did not meet: %v", i, r)
		}
	}
}

// TestMemoizedTracesIndependent: with tracing on, each memoized
// duplicate must own its trace slices — mutating one slot's trace must
// not leak into its siblings (they would have been independent had
// every job run itself).
func TestMemoizedTracesIndependent(t *testing.T) {
	g := inst.NewGen(44)
	in := g.DrawN(inst.ClassLatecomer, 1)[0]
	set := sim.DefaultSettings()
	set.MaxSegments = 2_000_000
	set.TraceCap = 64
	mk := func() Job {
		return Job{
			A:        sim.AgentSpec{Attrs: in.AgentA(), Prog: core.Program(core.Compact(), nil), Radius: in.R},
			B:        sim.AgentSpec{Attrs: in.AgentB(), Prog: core.Program(core.Compact(), nil), Radius: in.R},
			Settings: set,
			Key:      in,
		}
	}
	res, st := Run([]Job{mk(), mk()}, 2)
	if st.Executed != 1 {
		t.Fatalf("Executed = %d, want 1", st.Executed)
	}
	if len(res[0].TraceA) == 0 || !reflect.DeepEqual(res[0].TraceA, res[1].TraceA) {
		t.Fatalf("traces missing or unequal: %d vs %d points", len(res[0].TraceA), len(res[1].TraceA))
	}
	res[1].TraceA[0].T = -1
	if res[0].TraceA[0].T == -1 {
		t.Fatal("memoized duplicate aliases the canonical trace slice")
	}
}
