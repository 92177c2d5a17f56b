package dist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/inst"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Chaos differential suite: every fault the rig can inject — delay,
// drop, hang, truncate, corrupt — plus the pathological workloads
// (poison jobs that panic or kill their worker) must leave the batch
// byte-identical to the in-process serial engine. Failure handling is
// pure scheduling; these tests are the proof.

// Test-only poison and slow algorithms, registered before TestMain
// hands the re-exec'd binary to MaybeServeStdio — so a spawned stdio
// worker (this same binary) can construct them by name.
const (
	algPanic = "test-chaos-panic" // panics while the job executes
	algExit  = "test-chaos-exit"  // kills the whole worker process
	algSlow  = "test-chaos-slow"  // sleeps well past a tight stall deadline
)

func init() {
	wire.RegisterAlgorithm(algPanic, func(inst.Instance) prog.Program {
		return func() prog.Cursor {
			panic("poison job pulled")
		}
	})
	wire.RegisterAlgorithm(algExit, func(inst.Instance) prog.Program {
		return func() prog.Cursor {
			if os.Getenv(WorkerEnv) != "" {
				os.Exit(3) // the worker-killing poison job
			}
			panic("test-chaos-exit executed outside a worker subprocess")
		}
	})
	wire.RegisterAlgorithm(algSlow, func(inst.Instance) prog.Program {
		return func() prog.Cursor {
			time.Sleep(400 * time.Millisecond)
			return prog.InstrsCursor()
		}
	})
}

// algJobs is aurvJobs generalized to any registered algorithm name.
func algJobs(t *testing.T, alg string, ins []inst.Instance, set sim.Settings) []batch.Job {
	t.Helper()
	mk, ok := wire.Algorithm(alg)
	if !ok {
		t.Fatalf("algorithm %q not registered", alg)
	}
	jobs := make([]batch.Job, len(ins))
	for i, in := range ins {
		wj := wire.Job{In: in, Alg: alg, Set: set}
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

// TestChaosDifferential runs the batch through the chaos proxy under
// each scripted fault and asserts the dispatch engine recovers to a
// byte-identical result with no run-level error — the tentpole's
// acceptance criterion. Frame 1 of the worker→coordinator direction is
// the first reply (the hello is frame 0), so every fault strikes
// mid-run with jobs in flight; the proxy's later connections run the
// clean Default script, which is what the redial recovers onto.
func TestChaosDifferential(t *testing.T) {
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl.Close()
	go ServeListener(wl)

	ins := drawInstances(3)
	ins = append(ins, ins[0]) // a duplicate keeps memoization in the frame
	set := testSettings()
	want, wantStats := batch.Run(aurvJobs(t, ins, set), 1)

	cases := []struct {
		name string
		plan ChaosPlan
	}{
		{"delay", ChaosPlan{Default: ConnScript{Delay: 3 * time.Millisecond}}},
		{"drop", ChaosPlan{Scripts: []ConnScript{{ToCoord: []Fault{{Kind: FaultDrop, Frame: 1}}}}}},
		{"hang", ChaosPlan{Scripts: []ConnScript{{ToCoord: []Fault{{Kind: FaultHang, Frame: 1}}}}}},
		{"truncate", ChaosPlan{Scripts: []ConnScript{{ToCoord: []Fault{{Kind: FaultTruncate, Frame: 1}}}}}},
		{"corrupt", ChaosPlan{Scripts: []ConnScript{{ToCoord: []Fault{{Kind: FaultCorrupt, Frame: 1}}}}}},
		{"drop-deep-window", ChaosPlan{Scripts: []ConnScript{{ToCoord: []Fault{{Kind: FaultDrop, Frame: 2}}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewChaosProxy(wl.Addr().String(), tc.plan)
			if err != nil {
				t.Skipf("loopback listen unavailable: %v", err)
			}
			defer p.Close()
			var log bytes.Buffer
			got, gotStats, err := Run(aurvJobs(t, ins, set), 1, Config{
				Hosts:        tcpHosts(p.Addr()),
				Window:       2,
				RedialWait:   2 * time.Millisecond,
				StallTimeout: 300 * time.Millisecond, // the hang case rides on this
				Stderr:       &log,
			})
			if err != nil {
				t.Fatalf("run under %s fault failed: %v\ncoordinator log:\n%s", tc.name, err, log.String())
			}
			if !bytes.Equal(encodeAll(got), encodeAll(want)) {
				t.Fatalf("results under %s fault differ from in-process serial", tc.name)
			}
			if gotStats.Executed != wantStats.Executed {
				t.Fatalf("Executed = %d under %s fault, want %d (requeues must not inflate it)",
					gotStats.Executed, tc.name, wantStats.Executed)
			}
		})
	}
}

// TestChaosMetricsExactCounts turns the chaos rig on the flight
// recorder itself: with one scripted fault per run and Window 1 (so
// exactly one job is in flight when the fault strikes), the recorder
// must account for each injected fault exactly — one worker death, one
// requeue, no quarantine, no breaker trip. Counters that merely move
// "roughly with" faults are worse than none; this pins them to the
// injection schedule.
func TestChaosMetricsExactCounts(t *testing.T) {
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl.Close()
	go ServeListener(wl)

	ins := drawInstances(2)
	set := testSettings()
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)

	cases := []struct {
		name string
		plan ChaosPlan
	}{
		{"drop", ChaosPlan{Scripts: []ConnScript{{ToCoord: []Fault{{Kind: FaultDrop, Frame: 1}}}}}},
		{"hang", ChaosPlan{Scripts: []ConnScript{{ToCoord: []Fault{{Kind: FaultHang, Frame: 1}}}}}},
		{"corrupt", ChaosPlan{Scripts: []ConnScript{{ToCoord: []Fault{{Kind: FaultCorrupt, Frame: 1}}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewChaosProxy(wl.Addr().String(), tc.plan)
			if err != nil {
				t.Skipf("loopback listen unavailable: %v", err)
			}
			defer p.Close()

			deaths0 := mDeaths.Total()
			requeued0 := mRequeued.Total()
			quarantined0 := mQuarantined.Value()
			breakers0 := mBreakerOpens.Total()
			pings0 := mPings.Value()

			var log bytes.Buffer
			got, _, err := Run(aurvJobs(t, ins, set), 1, Config{
				Hosts:        tcpHosts(p.Addr()),
				Window:       1, // exactly one job in flight when the fault strikes
				RedialWait:   2 * time.Millisecond,
				StallTimeout: 300 * time.Millisecond,
				Stderr:       &log,
			})
			if err != nil {
				t.Fatalf("run under %s fault failed: %v\ncoordinator log:\n%s", tc.name, err, log.String())
			}
			if !bytes.Equal(encodeAll(got), encodeAll(want)) {
				t.Fatalf("results under %s fault differ from in-process serial", tc.name)
			}

			if d := mDeaths.Total() - deaths0; d != 1 {
				t.Errorf("worker deaths = %d for one injected %s fault, want exactly 1", d, tc.name)
			}
			if d := mRequeued.Total() - requeued0; d != 1 {
				t.Errorf("requeues = %d for one in-flight job at the %s fault, want exactly 1", d, tc.name)
			}
			if d := mQuarantined.Value() - quarantined0; d != 0 {
				t.Errorf("quarantines = %d under the %s fault, want 0 (a transport fault is not a poison job)", d, tc.name)
			}
			if d := mBreakerOpens.Total() - breakers0; d != 0 {
				t.Errorf("breaker opens = %d under one %s fault, want 0 (a single death is below every threshold)", d, tc.name)
			}
			if tc.name == "hang" {
				if d := mPings.Value() - pings0; d < 1 {
					t.Errorf("pings = %d under the hang fault, want >= 1 (the stall verdict rides on an unanswered ping)", d)
				}
			}
		})
	}
}

// soakSeedCount is how many random fault schedules TestChaosSoakSeeds
// sweeps: 3 by default (fast enough for every CI run), widened by the
// RV_CHAOS_SOAK_SEEDS environment variable for the nightly soak — a
// failing seed is its own replay handle regardless of how wide the
// sweep that found it was.
func soakSeedCount(t *testing.T) int64 {
	raw := os.Getenv("RV_CHAOS_SOAK_SEEDS")
	if raw == "" {
		return 3
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || n < 1 {
		t.Fatalf("RV_CHAOS_SOAK_SEEDS=%q: want a positive integer", raw)
	}
	return n
}

// TestChaosSoakSeeds sweeps seeded random fault plans (the replay
// handle: a failing seed reproduces its exact fault schedule) through
// RunOrFallback and asserts the one invariant that must survive any
// fault mix: byte identity with the serial engine. Whether a given
// seed's run recovers in-fleet or degrades to the in-process fallback
// is weather; the bytes are climate.
func TestChaosSoakSeeds(t *testing.T) {
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl.Close()
	go ServeListener(wl)

	ins := drawInstances(4)
	ins = append(ins, ins[1]) // a duplicate keeps memoization in the frame
	set := testSettings()
	want, wantStats := batch.Run(aurvJobs(t, ins, set), 1)

	for seed := int64(1); seed <= soakSeedCount(t); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p, err := NewChaosProxy(wl.Addr().String(), ChaosPlan{Scripts: RandomScripts(seed, 6)})
			if err != nil {
				t.Skipf("loopback listen unavailable: %v", err)
			}
			defer p.Close()
			var log bytes.Buffer
			got, gotStats := RunOrFallback(aurvJobs(t, ins, set), 1, Config{
				Hosts:        tcpHosts(p.Addr(), p.Addr()), // two connections through the rig
				Window:       2,
				RedialWait:   2 * time.Millisecond,
				StallTimeout: 250 * time.Millisecond,
				MaxRespawns:  4,
				Stderr:       &log,
			})
			if !bytes.Equal(encodeAll(got), encodeAll(want)) {
				t.Fatalf("seed %d results differ from in-process serial\ncoordinator log:\n%s", seed, log.String())
			}
			if gotStats.Executed != wantStats.Executed {
				t.Fatalf("seed %d Executed = %d, want %d", seed, gotStats.Executed, wantStats.Executed)
			}
		})
	}
}

// TestHungWorkerRequeued pins the liveness tentpole directly, without
// the proxy: a worker that hellos, claims jobs, and never answers —
// the connection stays open and healthy-looking — must be declared
// hung by the stall detector and its window requeued to the survivor,
// with no run-level error. Before the stall detector existed this
// exact topology wedged the dispatch forever.
func TestHungWorkerRequeued(t *testing.T) {
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer hl.Close()
	go func() { // the black hole: valid hello, then eat every frame forever
		for {
			conn, err := hl.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello(0)); err != nil {
					return
				}
				br := bufio.NewReader(conn)
				for {
					if _, _, err := wire.ReadFrame(br); err != nil {
						return
					}
				}
			}()
		}
	}()

	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer sl.Close()
	go ServeListener(sl)

	ins := drawInstances(3)
	set := testSettings()
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)

	var log bytes.Buffer
	got, _, err := Run(aurvJobs(t, ins, set), 1, Config{
		Hosts:        tcpHosts(hl.Addr().String(), sl.Addr().String()),
		Window:       2,
		StallTimeout: 250 * time.Millisecond,
		// One re-dial (it hangs again, then the slot retires): the stall
		// verdict is printed on the reconnect path, which is what the
		// log assertion below reads.
		MaxRespawns: 1,
		RedialWait:  2 * time.Millisecond,
		Stderr:      &log,
	})
	if err != nil {
		t.Fatalf("run with a hung worker failed: %v\ncoordinator log:\n%s", err, log.String())
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("results after hung-worker requeue differ from in-process serial")
	}
	if s := log.String(); !strings.Contains(s, "presumed hung") {
		t.Fatalf("stall detector never fired; coordinator log:\n%s", s)
	}
}

// TestPingKeepsBusyWorkerAlive is the stall detector's false-positive
// guard: a worker grinding one job far past the stall deadline is not
// hung — its read loop answers the liveness ping even while the
// executor works — so the run must complete without any stall, death,
// or respawn.
func TestPingKeepsBusyWorkerAlive(t *testing.T) {
	ins := drawInstances(1)[:1]
	set := testSettings()
	want, _ := batch.Run(algJobs(t, algSlow, ins, set), 1)

	pongs0 := mPongs.Value()
	var log bytes.Buffer
	got, _, err := Run(algJobs(t, algSlow, ins, set), 1, Config{
		Procs:        1,
		StallTimeout: 100 * time.Millisecond, // a quarter of the job's runtime
		Stderr:       &log,
	})
	if err != nil {
		t.Fatalf("run with a slow worker failed: %v\ncoordinator log:\n%s", err, log.String())
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("slow-job results differ from in-process serial")
	}
	if s := log.String(); strings.Contains(s, "hung") {
		t.Fatalf("busy worker was declared hung despite answering pings:\n%s", s)
	}
	if d := mPongs.Value() - pongs0; d < 1 {
		t.Fatalf("pongs = %d across a run that stayed alive on pings alone, want >= 1", d)
	}
}

// TestPoisonJobPanicReported: a job whose program panics on the worker
// is a deterministic failure — the worker's recover turns it into an
// error frame, the coordinator reports it per-job, and neither the
// connection nor the rest of the batch is disturbed (no respawn burned,
// good results byte-identical).
func TestPoisonJobPanicReported(t *testing.T) {
	ins := drawInstances(2)
	set := testSettings()
	good := aurvJobs(t, ins, set)
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)
	jobs := append(aurvJobs(t, ins, set), algJobs(t, algPanic, drawInstances(1)[:1], set)...)

	var log bytes.Buffer
	st, err := RunStream(jobs, 1, Config{Procs: 2, Stderr: &log})
	if err != nil {
		t.Fatalf("stream start failed: %v", err)
	}
	var got []sim.Result
	for r := range st.Results() {
		got = append(got, r)
	}
	if err := st.Err(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("poison panic not reported as a per-job failure: %v", err)
	}
	if len(got) != len(good) || !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatalf("good prefix disturbed by the poison job: %d results, want %d", len(got), len(good))
	}
	if s := log.String(); strings.Contains(s, "reconnect") {
		t.Fatalf("a panicking job burned a respawn (it must be an error frame, not a death):\n%s", s)
	}
}

// TestPoisonJobQuarantined: a job that kills its whole worker process
// takes out one worker (forgiven — workers die for unrelated reasons),
// but when its re-dispatch kills a second, distinct slot it is
// quarantined as a deterministic per-job error instead of chewing
// through every slot's respawn budget. The good jobs' results survive
// byte-identically.
func TestPoisonJobQuarantined(t *testing.T) {
	ins := drawInstances(2)
	set := testSettings()
	good := aurvJobs(t, ins, set)
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)
	jobs := append(aurvJobs(t, ins, set), algJobs(t, algExit, drawInstances(1)[:1], set)...)

	deaths0 := mDeaths.Total()
	requeued0 := mRequeued.Total()
	quarantined0 := mQuarantined.Value()
	var log bytes.Buffer
	st, err := RunStream(jobs, 1, Config{
		Procs: 2,
		// Window 1 keeps innocent jobs out of the blast radius: only the
		// poison job is in flight on the worker it kills, so the distinct-
		// killer count it accumulates is provably its own doing.
		Window:      1,
		MaxRespawns: 6,
		RedialWait:  2 * time.Millisecond,
		Stderr:      &log,
	})
	if err != nil {
		t.Fatalf("stream start failed: %v", err)
	}
	var got []sim.Result
	for r := range st.Results() {
		got = append(got, r)
	}
	if err := st.Err(); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("worker-killing job was not quarantined: %v\ncoordinator log:\n%s", err, log.String())
	}
	if len(got) != len(good) || !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatalf("good results disturbed by the quarantined job: %d results, want %d", len(got), len(good))
	}
	// The recorder's account of the episode. How many workers the poison
	// job chews through before its second *distinct* killer is weather
	// (it may bounce on a respawn of the same slot), so the absolute
	// death count is not pinned — but every death requeued exactly the
	// one in-flight poison job except the last, which quarantined it.
	if d := mQuarantined.Value() - quarantined0; d != 1 {
		t.Errorf("quarantines = %d for one poison job, want exactly 1", d)
	}
	deaths := mDeaths.Total() - deaths0
	if deaths < 2 {
		t.Errorf("worker deaths = %d for a job quarantined on its second distinct killer, want >= 2", deaths)
	}
	if d := mRequeued.Total() - requeued0; d != deaths-1 {
		t.Errorf("requeues = %d across %d deaths, want deaths-1 = %d (the last dispatch quarantines instead)",
			d, deaths, deaths-1)
	}
}

// TestBreakerOpensThenDegrades: consecutive connection failures open a
// slot's circuit breaker; a later dispatch against an all-open fleet
// fails fast with ErrAllBreakersOpen, and RunOrFallback turns that into
// graceful in-process degradation — byte-identical, with a warning.
func TestBreakerOpensThenDegrades(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	go func() { // every connection: hello, swallow one job, die
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello(0)); err != nil {
					return
				}
				wire.ReadFrame(conn)
			}()
		}
	}()

	ins := drawInstances(2)
	set := testSettings()
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)

	breakers0 := mBreakerOpens.Total()
	fallbacks0 := mFallbacks.Value()
	var log bytes.Buffer
	f, err := Dial(Config{
		Hosts:            tcpHosts(l.Addr().String()),
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second, // long enough to still be open for the next Run
		MaxRespawns:      10,
		RedialWait:       2 * time.Millisecond,
		Stderr:           &log,
	})
	if err != nil {
		t.Fatalf("dial failed: %v", err)
	}
	defer f.Close()

	if _, _, err := f.Run(aurvJobs(t, ins, set), 1); err == nil {
		t.Fatal("run against an always-dying worker reported success")
	}
	if s := log.String(); !strings.Contains(s, "circuit breaker open") {
		t.Fatalf("breaker never opened; coordinator log:\n%s", s)
	}
	if _, _, err := f.Run(aurvJobs(t, ins, set), 1); !errors.Is(err, ErrAllBreakersOpen) {
		t.Fatalf("dispatch against an all-open fleet: got %v, want ErrAllBreakersOpen", err)
	}
	got, _ := f.RunOrFallback(aurvJobs(t, ins, set), 1)
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("degraded in-process results differ from serial")
	}
	if s := log.String(); !strings.Contains(s, "in-process") {
		t.Fatalf("degradation warning missing; coordinator log:\n%s", s)
	}
	if d := mBreakerOpens.Total() - breakers0; d != 1 {
		t.Errorf("breaker opens = %d, want exactly 1 (one threshold crossing, cooldown outlasts the test)", d)
	}
	if d := mFallbacks.Value() - fallbacks0; d != 1 {
		t.Errorf("fallbacks = %d, want exactly 1 (the one RunOrFallback degradation)", d)
	}
}

// TestBreakerHalfOpenRecovery: once the cooldown elapses the breaker
// goes half-open — the next dispatch's reconnection dial is the probe —
// and a recovered host closes it: the batch completes in-fleet,
// byte-identically, with no run-level error.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	go func() { // first two connections die mid-job; the host then recovers
		for i := 0; ; i++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if i < 2 {
				go func() {
					defer conn.Close()
					if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello(0)); err != nil {
						return
					}
					wire.ReadFrame(conn)
				}()
				continue
			}
			go func() {
				defer conn.Close()
				Serve(conn, conn)
			}()
		}
	}()

	ins := drawInstances(2)
	set := testSettings()
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)

	var log bytes.Buffer
	f, err := Dial(Config{
		Hosts:            tcpHosts(l.Addr().String()),
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
		MaxRespawns:      10,
		RedialWait:       2 * time.Millisecond,
		Stderr:           &log,
	})
	if err != nil {
		t.Fatalf("dial failed: %v", err)
	}
	defer f.Close()

	if _, _, err := f.Run(aurvJobs(t, ins, set), 1); err == nil {
		t.Fatal("run against the still-dying worker reported success")
	}
	time.Sleep(100 * time.Millisecond) // let the cooldown elapse: next dial is the half-open probe
	got, _, err := f.Run(aurvJobs(t, ins, set), 1)
	if err != nil {
		t.Fatalf("half-open probe against the recovered worker failed: %v\ncoordinator log:\n%s", err, log.String())
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("results after breaker recovery differ from in-process serial")
	}
}

// TestHelloTimeoutConfigurable: a host that accepts but never speaks
// must fail the handshake within the configured HelloTimeout, not the
// 10-second default — the knob the satellite adds to Config.
func TestHelloTimeoutConfigurable(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	testDone := make(chan struct{})
	defer close(testDone)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() { // hold the connection open, silently, until the test ends
				<-testDone
				c.Close()
			}()
		}
	}()

	ins := drawInstances(1)[:1]
	start := time.Now()
	_, _, err = Run(aurvJobs(t, ins, testSettings()), 1, Config{
		Hosts:        tcpHosts(l.Addr().String()),
		HelloTimeout: 150 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("run against a silent host reported success")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("handshake failure took %v; the configured 150ms hello timeout was ignored", elapsed)
	}
}

// TestServerGracefulShutdown exercises the drain path rvworker's signal
// handler uses: after serving a full batch, Shutdown stops the
// listener, unblocks the idle parked connection, and Serve returns nil
// — the worker's cue to exit 0.
func TestServerGracefulShutdown(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	srv := NewServer(ServeOptions{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	ins := drawInstances(2)
	set := testSettings()
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)
	got, _, err := Run(aurvJobs(t, ins, set), 1, Config{Hosts: tcpHosts(l.Addr().String())})
	if err != nil {
		t.Fatalf("run against the graceful server failed: %v", err)
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("graceful-server results differ from in-process serial")
	}

	srv.Shutdown()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after Shutdown, want nil (the exit-0 contract)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}
