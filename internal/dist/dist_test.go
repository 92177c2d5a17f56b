package dist

import (
	"bytes"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/inst"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestMain lets the test binary double as the spawned worker (the
// coordinator's default WorkerCmd re-executes the current executable).
// maybeFlakyStdio runs first: it hijacks worker mode into a
// die-after-one-job fake exactly once per marker file, the
// deterministic stand-in for a stdio subprocess dying mid-run (see
// TestStdioRespawnMidRun).
func TestMain(m *testing.M) {
	maybeFlakyStdio()
	MaybeServeStdio()
	os.Exit(m.Run())
}

const testAlg = "AlmostUniversalRV(compact)"

func testSettings() sim.Settings {
	s := sim.DefaultSettings()
	s.MaxSegments = 120_000_000
	return s
}

// aurvJobs builds wire-formed batch jobs for the registered compact
// AURV algorithm, mirroring how rendezvous.SimulateBatch builds them.
func aurvJobs(t *testing.T, ins []inst.Instance, set sim.Settings) []batch.Job {
	t.Helper()
	mk, ok := wire.Algorithm(testAlg)
	if !ok {
		t.Fatalf("standard algorithm %q not registered", testAlg)
	}
	jobs := make([]batch.Job, len(ins))
	for i, in := range ins {
		wj := wire.Job{In: in, Alg: testAlg, Set: set}
		jobs[i] = batch.Job{
			A:        sim.AgentSpec{Attrs: in.AgentA(), Prog: mk(in), Radius: in.R},
			B:        sim.AgentSpec{Attrs: in.AgentB(), Prog: mk(in), Radius: in.R},
			Settings: set,
			Key:      wj,
			Wire:     &wj,
		}
	}
	return jobs
}

func drawInstances(n int) []inst.Instance {
	g := inst.NewGen(7)
	var ins []inst.Instance
	for _, c := range []inst.Class{inst.ClassMirrorInterior, inst.ClassLatecomer} {
		ins = append(ins, g.DrawN(c, n)...)
	}
	return ins
}

// tcpHosts wraps plain addresses in Config.Hosts form (no pool hints).
func tcpHosts(addrs ...string) []Host {
	hosts := make([]Host, len(addrs))
	for i, a := range addrs {
		hosts[i] = Host{Addr: a}
	}
	return hosts
}

func encodeAll(res []sim.Result) []byte {
	var b bytes.Buffer
	for _, r := range res {
		b.Write(wire.EncodeResult(r))
	}
	return b.Bytes()
}

// TestCoordinatorTwoWorkers is the coordinator + 2 spawned workers
// smoke test: byte-identical to the in-process engine, memoization
// accounting included.
func TestCoordinatorTwoWorkers(t *testing.T) {
	ins := drawInstances(3)
	ins = append(ins, ins[0]) // one duplicate for the memoization path
	set := testSettings()

	want, wantStats := batch.Run(aurvJobs(t, ins, set), 1)
	got, gotStats, err := Run(aurvJobs(t, ins, set), 1, Config{Procs: 2})
	if err != nil {
		t.Fatalf("distributed run failed: %v", err)
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("distributed results differ from in-process")
	}
	if gotStats.Executed != wantStats.Executed || gotStats.Executed != len(ins)-1 {
		t.Fatalf("Executed = %d (dist) vs %d (batch), want %d",
			gotStats.Executed, wantStats.Executed, len(ins)-1)
	}
	if gotStats.Met != wantStats.Met || gotStats.Segments != wantStats.Segments {
		t.Fatalf("aggregate stats diverge: %+v vs %+v", gotStats, wantStats)
	}
}

// TestTCPTransport serves a worker on a loopback listener and runs the
// batch against it by address.
func TestTCPTransport(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	go ServeListener(l)

	ins := drawInstances(2)
	set := testSettings()
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)
	got, _, err := Run(aurvJobs(t, ins, set), 1, Config{Hosts: tcpHosts(l.Addr().String())})
	if err != nil {
		t.Fatalf("TCP run failed: %v", err)
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("TCP results differ from in-process")
	}
}

// gatedJob returns a local-only (no wire form) job whose program blocks
// until the gate closes, then ends without any instruction — the
// deterministic handle for observing streaming before batch completion.
func gatedJob(gate <-chan struct{}) batch.Job {
	blocked := func() prog.Cursor { <-gate; return prog.InstrsCursor() }
	in := inst.Instance{R: 0.5, X: 2, Y: 0, Phi: 0, Tau: 1, V: 1, T: 0, Chi: 1}
	return batch.Job{
		A:        sim.AgentSpec{Attrs: in.AgentA(), Prog: blocked, Radius: in.R},
		B:        sim.AgentSpec{Attrs: in.AgentB(), Prog: prog.Empty(), Radius: in.R},
		Settings: testSettings(),
	}
}

// TestRunStreamDeliversBeforeCompletion pins the ordered-streaming
// contract at the dist level: with job 0 on a worker process and job 1
// gated in the coordinator, result 0 must arrive while job 1 is still
// blocked — i.e. before the batch completes.
func TestRunStreamDeliversBeforeCompletion(t *testing.T) {
	gate := make(chan struct{})
	ins := drawInstances(1)[:1]
	jobs := aurvJobs(t, ins, testSettings())
	jobs = append(jobs, gatedJob(gate))

	st, err := RunStream(jobs, 1, Config{Procs: 1})
	if err != nil {
		t.Fatalf("stream start failed: %v", err)
	}
	select {
	case r, ok := <-st.Results():
		if !ok {
			t.Fatal("stream closed before first result")
		}
		if !r.Met {
			t.Fatalf("remote job did not meet: %v", r)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("no streamed result while the batch tail was still running")
	}
	close(gate) // release job 1; the batch can now drain
	r, ok := <-st.Results()
	if !ok {
		t.Fatal("stream closed before gated result")
	}
	if r.Met || r.Reason != sim.ReasonProgramsEnded {
		t.Fatalf("gated job result unexpected: %v", r)
	}
	if _, ok := <-st.Results(); ok {
		t.Fatal("stream delivered more than the batch size")
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream ended with error: %v", err)
	}
}

// flakyWorker is an in-test fake: it speaks a valid hello, reads one
// job frame, and drops the connection without answering — the
// deterministic stand-in for a worker dying mid-job.
func flakyWorker(t *testing.T, l net.Listener) {
	conn, err := l.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello(0)); err != nil {
		t.Error(err)
		return
	}
	if _, _, err := wire.ReadFrame(conn); err != nil {
		t.Error(err)
	}
	// Close without replying: the coordinator must requeue the job.
}

// TestWorkerDeathRequeues kills a worker mid-job (the fake above) and
// checks the batch still completes on the survivor, byte-identically
// and without a run-level error.
func TestWorkerDeathRequeues(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	go flakyWorker(t, l)

	ins := drawInstances(3)
	set := testSettings()
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)
	got, _, err := Run(aurvJobs(t, ins, set), 1,
		Config{Hosts: tcpHosts(l.Addr().String()), Procs: 1})
	if err != nil {
		t.Fatalf("run with one dying worker failed: %v", err)
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("results after requeue differ from in-process")
	}
}

// TestAllWorkersDead: when every worker is gone and jobs remain, the
// run must error out rather than hang. Respawning is disabled — the
// dead fake never accepts again, so each re-dial would only burn a
// hello timeout before the same verdict (TestRespawnBudgetExhausted
// covers the bounded-respawn path).
func TestAllWorkersDead(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	go flakyWorker(t, l)

	ins := drawInstances(2)
	_, _, err = Run(aurvJobs(t, ins, testSettings()), 1,
		Config{Hosts: tcpHosts(l.Addr().String()), MaxRespawns: -1})
	if err == nil {
		t.Fatal("run with only a dying worker reported success")
	}
}

// TestUnregisteredAlgorithmErrors: a wire job naming an unknown
// algorithm is a deterministic failure — reported, not requeued, and
// the rest of the batch still completes.
func TestUnregisteredAlgorithmErrors(t *testing.T) {
	ins := drawInstances(1)[:1]
	set := testSettings()
	jobs := aurvJobs(t, ins, set)
	bogus := *jobs[0].Wire
	bogus.Alg = "no-such-algorithm"
	jobs = append(jobs, batch.Job{
		A:        jobs[0].A,
		B:        jobs[0].B,
		Settings: set,
		Wire:     &bogus,
	})
	_, _, err := Run(jobs, 1, Config{Procs: 1})
	if err == nil {
		t.Fatal("unregistered algorithm did not surface as an error")
	}
}

// TestNoWorkersStartable: an unspawnable command with no hosts is a
// startup error (the caller's cue to fall back in-process).
func TestNoWorkersStartable(t *testing.T) {
	ins := drawInstances(1)[:1]
	_, _, err := Run(aurvJobs(t, ins, testSettings()), 1,
		Config{Procs: 1, Cmd: []string{"/nonexistent/worker-binary"}})
	if err == nil {
		t.Fatal("unspawnable worker command did not error")
	}
}

// TestLocalOnlyJobsNeedNoFleet: a batch with no wire-formed jobs never
// contacts the fleet, even when one is configured.
func TestLocalOnlyJobsNeedNoFleet(t *testing.T) {
	gate := make(chan struct{})
	close(gate)
	jobs := []batch.Job{gatedJob(gate), gatedJob(gate)}
	res, st, err := Run(jobs, 2, Config{Procs: 1, Cmd: []string{"/nonexistent/worker-binary"}})
	if err != nil {
		t.Fatalf("local-only batch failed: %v", err)
	}
	if len(res) != 2 || st.Executed != 2 {
		t.Fatalf("local-only batch: %d results, stats %+v", len(res), st)
	}
}
