package rendezvous_test

import (
	"bytes"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/batch"
	"repro/internal/dist"
	"repro/internal/inst"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/rendezvous"
)

// TestMain lets this test binary serve as its own worker fleet: the
// coordinator's default WorkerCmd re-executes the current executable
// with the worker marker set, and MaybeServeStdio diverts that copy
// into the worker loop before any test runs.
func TestMain(m *testing.M) {
	dist.MaybeServeStdio()
	os.Exit(m.Run())
}

// TestWireNamesRegistered pins the correspondence between the Name
// fields this package puts on its Algorithm values and the wire
// registry filled by internal/dist: if they drift apart, batches
// silently lose their wire forms and stop distributing.
func TestWireNamesRegistered(t *testing.T) {
	ins := []rendezvous.Instance{{R: 0.8, X: 1.2, Y: 0.5, Phi: 1.0, Tau: 1, V: 1, T: 0.5, Chi: 1}}
	for _, alg := range []rendezvous.Algorithm{
		rendezvous.AlmostUniversalRV(),
		rendezvous.AlmostUniversalRVWith(rendezvous.FaithfulSchedule()),
		rendezvous.CGKK(),
		rendezvous.Latecomers(),
	} {
		if !wire.Registered(alg.Name) {
			t.Errorf("algorithm %q has no wire registration: its jobs cannot distribute", alg.Name)
		}
		jobs := rendezvous.BatchJobsForTest(ins, alg, rendezvous.DefaultSettings())
		if jobs[0].Wire == nil {
			t.Errorf("algorithm %q produced no wire form: its jobs cannot distribute", alg.Name)
		}
	}
}

// TestTweakedScheduleDoesNotDistribute is the spoof-protection
// regression: a caller-modified schedule keeps its standard Name, but
// its program no longer matches what workers would rebuild from the
// registry — such an algorithm must produce NO wire form (and so run
// in-process) rather than silently distribute the wrong program.
func TestTweakedScheduleDoesNotDistribute(t *testing.T) {
	s := rendezvous.CompactSchedule()
	s.Type3WaitExp = func(i int) float64 { return 7 * float64(i) } // custom, Name still "compact"
	alg := rendezvous.AlmostUniversalRVWith(s)
	if alg.Name != "AlmostUniversalRV(compact)" {
		t.Fatalf("precondition: tweaked schedule changed the name to %q", alg.Name)
	}
	ins := []rendezvous.Instance{{R: 0.8, X: 1.2, Y: 0.5, Phi: 1.0, Tau: 1, V: 1, T: 0.5, Chi: 1}}
	jobs := rendezvous.BatchJobsForTest(ins, alg, rendezvous.DefaultSettings())
	if jobs[0].Wire != nil {
		t.Fatal("tweaked schedule got a wire form: workers would run a different program under the same name")
	}
	// A hand-built Algorithm borrowing a registered name must not
	// distribute either.
	handmade := rendezvous.Algorithm{Name: "CGKK", Program: alg.Program}
	jobs = rendezvous.BatchJobsForTest(ins, handmade, rendezvous.DefaultSettings())
	if jobs[0].Wire != nil {
		t.Fatal("hand-built Algorithm with a registered name got a wire form")
	}
}

// distInstances draws the T2-style workload: all four instance types,
// plus duplicates so the memoization path is exercised across the
// process boundary.
func distInstances(t *testing.T) []rendezvous.Instance {
	t.Helper()
	g := inst.NewGen(11)
	var ins []rendezvous.Instance
	for _, c := range []inst.Class{
		inst.ClassMirrorInterior, inst.ClassLatecomer,
		inst.ClassClockDrift, inst.ClassRotatedDelayed,
	} {
		ins = append(ins, g.DrawN(c, 3)...)
	}
	// Duplicates: the last two instances again, out of order.
	ins = append(ins, ins[1], ins[7])
	return ins
}

func distSettings() rendezvous.Settings {
	s := rendezvous.DefaultSettings()
	s.MaxSegments = 120_000_000
	return s
}

// encodeAll renders a result slice through the canonical codec — the
// byte-identity witness for comparing engines.
func encodeAll(t *testing.T, res []sim.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, r := range res {
		b.Write(wire.EncodeResult(r))
	}
	return b.Bytes()
}

// TestDistMatchesInProcess is the cross-process determinism
// differential: the same T2 batch run (a) in-process serially, (b)
// in-process on 4 workers, and (c) distributed over 2 local worker
// subprocesses must produce byte-identical result slices and identical
// memoization accounting.
func TestDistMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	ins := distInstances(t)
	set := distSettings()
	alg := rendezvous.AlmostUniversalRV()

	mkJobs := func() []batch.Job { return rendezvous.BatchJobsForTest(ins, alg, set) }

	serialRes, serialStats := batch.Run(mkJobs(), 1)
	parallelRes, parallelStats := batch.Run(mkJobs(), 4)
	f, err := dist.Dial(dist.Config{Procs: 2})
	if err != nil {
		t.Fatalf("fleet dial failed: %v", err)
	}
	distRes, distStats, err := f.Run(mkJobs(), 1)
	f.Close()
	if err != nil {
		t.Fatalf("distributed run failed: %v", err)
	}

	serialBytes := encodeAll(t, serialRes)
	if got := encodeAll(t, parallelRes); !bytes.Equal(got, serialBytes) {
		t.Error("in-process parallel results differ from serial")
	}
	if got := encodeAll(t, distRes); !bytes.Equal(got, serialBytes) {
		t.Error("distributed results differ from in-process serial")
	}
	if serialStats.Executed != len(ins)-2 {
		t.Errorf("serial Executed = %d, want %d (memoization)", serialStats.Executed, len(ins)-2)
	}
	if parallelStats.Executed != serialStats.Executed || distStats.Executed != serialStats.Executed {
		t.Errorf("Executed disagrees: serial %d, parallel %d, dist %d",
			serialStats.Executed, parallelStats.Executed, distStats.Executed)
	}
	for _, r := range distRes {
		if !r.Met {
			t.Fatalf("distributed job did not meet: %v", r)
		}
	}
}

// TestSimulateBatchDistributed exercises the public surface: the
// Settings.WorkerProcs knob must hand back exactly the slice the
// in-process path produces.
func TestSimulateBatchDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	ins := distInstances(t)
	alg := rendezvous.AlmostUniversalRV()

	local := rendezvous.SimulateBatch(ins, alg, distSettings())
	dset := distSettings()
	dset.WorkerProcs = 2
	distributed := rendezvous.SimulateBatch(ins, alg, dset)

	if !bytes.Equal(encodeAll(t, local), encodeAll(t, distributed)) {
		t.Fatal("SimulateBatch with WorkerProcs=2 differs from in-process")
	}
}

// TestSimulateBatchStreamOrder checks the public streaming API delivers
// the full batch in input order, byte-identical to the slice API.
func TestSimulateBatchStreamOrder(t *testing.T) {
	ins := distInstances(t)
	set := distSettings()
	set.Parallelism = 4
	alg := rendezvous.AlmostUniversalRV()

	want := rendezvous.SimulateBatch(ins, alg, set)
	var got []sim.Result
	for r := range rendezvous.SimulateBatchStream(ins, alg, set) {
		got = append(got, r)
	}
	if len(got) != len(want) {
		t.Fatalf("stream delivered %d results, want %d", len(got), len(want))
	}
	if !bytes.Equal(encodeAll(t, got), encodeAll(t, want)) {
		t.Fatal("streamed results differ from batch results")
	}
}

// TestFleetSessionMatchesOneShot exercises the public session API:
// DialFleet once, several SimulateBatch and SimulateBatchStream calls
// over it, Close once — every call byte-identical to the package-level
// entry points (the determinism guarantee, session reuse included).
func TestFleetSessionMatchesOneShot(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	ins := distInstances(t)
	alg := rendezvous.AlmostUniversalRV()
	set := distSettings()
	want := rendezvous.SimulateBatch(ins, alg, set)

	dset := distSettings()
	dset.WorkerProcs = 2
	f, err := rendezvous.DialFleet(dset)
	if err != nil {
		t.Fatalf("DialFleet failed: %v", err)
	}
	defer f.Close()
	for k := 0; k < 2; k++ {
		got := f.SimulateBatch(ins, alg, set)
		if !bytes.Equal(encodeAll(t, got), encodeAll(t, want)) {
			t.Fatalf("fleet batch %d differs from one-shot SimulateBatch", k)
		}
	}
	var streamed []sim.Result
	for r := range f.SimulateBatchStream(ins, alg, set) {
		streamed = append(streamed, r)
	}
	if !bytes.Equal(encodeAll(t, streamed), encodeAll(t, want)) {
		t.Fatal("fleet stream differs from one-shot SimulateBatch")
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close failed: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close failed: %v", err)
	}
}

// TestDialFleetRejectsBadSettings: no fleet named, or a malformed
// host:port*pool hint, must error at dial time — not silently degrade.
func TestDialFleetRejectsBadSettings(t *testing.T) {
	if _, err := rendezvous.DialFleet(rendezvous.DefaultSettings()); err == nil {
		t.Error("DialFleet with no fleet settings did not error")
	}
	bad := rendezvous.DefaultSettings()
	bad.Hosts = "127.0.0.1:9101*zero"
	if _, err := rendezvous.DialFleet(bad); err == nil {
		t.Error("DialFleet with a malformed pool hint did not error")
	}
}

// TestMalformedHostsFallsBackInProcess: the batch entry points degrade
// a malformed Hosts string to an in-process run (with a warning),
// byte-identically — the same policy as an unreachable fleet.
func TestMalformedHostsFallsBackInProcess(t *testing.T) {
	ins := distInstances(t)[:4]
	alg := rendezvous.AlmostUniversalRV()

	want := rendezvous.SimulateBatch(ins, alg, distSettings())
	bad := distSettings()
	bad.Hosts = "127.0.0.1:1*oops"
	got := rendezvous.SimulateBatch(ins, alg, bad)
	if !bytes.Equal(encodeAll(t, want), encodeAll(t, got)) {
		t.Fatal("malformed-hosts fallback differs from in-process")
	}
}

// TestDistFallback points the fleet at a port nobody listens on: the
// batch must still complete in-process with identical output.
func TestDistFallback(t *testing.T) {
	ins := distInstances(t)[:4]
	alg := rendezvous.AlmostUniversalRV()

	want := rendezvous.SimulateBatch(ins, alg, distSettings())
	bad := distSettings()
	bad.Hosts = "127.0.0.1:1" // reserved port: connection refused
	got := rendezvous.SimulateBatch(ins, alg, bad)
	if !bytes.Equal(encodeAll(t, want), encodeAll(t, got)) {
		t.Fatal("fallback results differ from in-process")
	}
}

// counter reads one process-wide counter family, summed over labels.
func counter(t *testing.T, name string) float64 {
	t.Helper()
	sum := 0.0
	for _, c := range obs.TakeSnapshot().Counters {
		if c.Name == name {
			sum += c.Value
		}
	}
	return sum
}

// TestOneShotSkipsDialWithoutWireJobs: a batch none of whose jobs has
// a wire form never dials the fleet its settings name — here an
// unspawnable worker command, which would otherwise cost a warned,
// counted fallback.
func TestOneShotSkipsDialWithoutWireJobs(t *testing.T) {
	ins := distInstances(t)[:1]
	alg, ok := rendezvous.Dedicated(ins[0]) // closure-built: no wire form
	if !ok {
		t.Fatal("precondition: instance has no dedicated algorithm")
	}
	want := rendezvous.SimulateBatch(ins, alg, distSettings())
	dset := distSettings()
	dset.WorkerProcs = 1
	dset.WorkerCmd = "/nonexistent/worker-binary"
	fallbacks0 := counter(t, "rv_dist_fallbacks_total")
	got := rendezvous.SimulateBatch(ins, alg, dset)
	if !bytes.Equal(encodeAll(t, got), encodeAll(t, want)) {
		t.Fatal("local-only batch differs from in-process")
	}
	if d := counter(t, "rv_dist_fallbacks_total") - fallbacks0; d != 0 {
		t.Fatalf("%v fallbacks: the batch dialed a fleet it had no job for", d)
	}
}

// TestOneShotFleetNoWiderThanBatch: the one-shot session is capped at
// the batch's unique wire-formed jobs — three host entries and a batch
// of one instance three times over cost exactly one connection.
func TestOneShotFleetNoWiderThanBatch(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	var conns atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conn.Close()
				dist.Serve(conn, conn, dist.ServeOptions{})
			}()
		}
	}()

	in := distInstances(t)[0]
	ins := []rendezvous.Instance{in, in, in}
	alg := rendezvous.AlmostUniversalRV()
	want := rendezvous.SimulateBatch(ins, alg, distSettings())
	dset := distSettings()
	dset.Hosts = strings.Repeat(l.Addr().String()+",", 3)
	got := rendezvous.SimulateBatch(ins, alg, dset)
	if !bytes.Equal(encodeAll(t, got), encodeAll(t, want)) {
		t.Fatal("capped one-shot results differ from in-process")
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("one-shot session opened %d connections for 1 unique job, want 1", n)
	}
}
