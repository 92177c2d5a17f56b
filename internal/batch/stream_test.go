package batch

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/inst"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/wire"
)

// streamJob builds a quick no-meet job; gate non-nil blocks the
// program (and with it the job) until the gate closes.
func streamJob(gate <-chan struct{}) Job {
	p := prog.Empty()
	if gate != nil {
		p = func() prog.Cursor { <-gate; return prog.InstrsCursor() }
	}
	in := inst.Instance{R: 0.5, X: 2, Y: 0, Phi: 0, Tau: 1, V: 1, T: 0, Chi: 1}
	return Job{
		A:        sim.AgentSpec{Attrs: in.AgentA(), Prog: p, Radius: in.R},
		B:        sim.AgentSpec{Attrs: in.AgentB(), Prog: prog.Empty(), Radius: in.R},
		Settings: sim.DefaultSettings(),
	}
}

// TestRunStreamPrefixBeforeDrain pins the streaming contract: with job
// 1 gated, results 0 must be deliverable while the batch is still
// running, and 2 must wait for 1 (input order) even though it finished
// long before.
func TestRunStreamPrefixBeforeDrain(t *testing.T) {
	gate := make(chan struct{})
	jobs := []Job{streamJob(nil), streamJob(gate), streamJob(nil)}

	st := RunStream(jobs, 3)
	select {
	case _, ok := <-st.Results():
		if !ok {
			t.Fatal("stream closed before first result")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("result 0 not streamed while job 1 was still running")
	}
	// Nothing else may arrive while job 1 blocks — in particular not
	// job 2's result, even after it completes.
	select {
	case r, ok := <-st.Results():
		t.Fatalf("out-of-order delivery while job 1 blocked: %v (open %v)", r, ok)
	default:
	}
	close(gate)
	var rest int
	for range st.Results() {
		rest++
	}
	if rest != 2 {
		t.Fatalf("tail delivered %d results, want 2", rest)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Jobs != 3 || s.Executed != 3 {
		t.Fatalf("stats %+v", s)
	}
}

// TestRunStreamMatchesRun: collecting the stream reproduces Run
// exactly — results, order, stats — memoized duplicates included.
func TestRunStreamMatchesRun(t *testing.T) {
	mk := func() []Job {
		jobs := []Job{streamJob(nil), streamJob(nil), streamJob(nil)}
		jobs[0].Key, jobs[1].Key, jobs[2].Key = "a", "b", "a" // 2 executes as dup of 0
		return jobs
	}
	want, wantStats := Run(mk(), 2)
	st := RunStream(mk(), 2)
	var got []sim.Result
	for r := range st.Results() {
		got = append(got, r)
	}
	if len(got) != len(want) {
		t.Fatalf("stream delivered %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(wire.EncodeResult(got[i]), wire.EncodeResult(want[i])) {
			t.Fatalf("result %d differs: %v vs %v", i, got[i], want[i])
		}
	}
	if gotStats := st.Stats(); gotStats != wantStats {
		t.Fatalf("stats differ: %+v vs %+v", gotStats, wantStats)
	}
	if wantStats.Executed != 2 {
		t.Fatalf("Executed = %d, want 2 (memoization)", wantStats.Executed)
	}
}

// TestRunStreamEmpty: a zero-job stream closes immediately with clean
// stats.
func TestRunStreamEmpty(t *testing.T) {
	st := RunStream(nil, 4)
	if _, ok := <-st.Results(); ok {
		t.Fatal("empty stream delivered a result")
	}
	if s := st.Stats(); s.Jobs != 0 || s.Executed != 0 {
		t.Fatalf("stats %+v", s)
	}
}
