package dist

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Tests of the PR 4 dispatch path: pipelined windows, in-worker pools,
// mid-run respawn, and the distributed Monte-Carlo sweep. Everything
// here is a differential against the in-process engines — the
// determinism guarantee is the spec.

// flakyStdioEnv points worker mode at a marker file: when the marker
// does not exist yet, the worker creates it, speaks a valid hello,
// swallows one job frame, and exits — dying with the job (and any
// other in-flight jobs) unanswered. When the marker exists, the worker
// behaves normally. One Config{Procs:1} slot therefore dies once and
// comes back healthy on respawn.
const flakyStdioEnv = "RV_TEST_FLAKY_STDIO"

func maybeFlakyStdio() {
	marker := os.Getenv(flakyStdioEnv)
	if marker == "" || os.Getenv(WorkerEnv) == "" {
		return
	}
	if _, err := os.Stat(marker); err == nil {
		return // already died once: fall through to the real worker loop
	}
	if err := os.WriteFile(marker, []byte("died"), 0o644); err != nil {
		os.Exit(1)
	}
	bw := bufio.NewWriter(os.Stdout)
	wire.WriteFrame(bw, wire.FrameHello, wire.EncodeHello(0))
	bw.Flush()
	wire.ReadFrame(bufio.NewReader(os.Stdin)) // swallow one job
	os.Exit(1)
}

// TestWindowedMatchesSerial is the core differential of the pipelined
// path: 2 worker subprocesses, a 4-deep window, and a 2-wide in-worker
// pool (Parallelism forwarded over the wire) must be byte-identical to
// the in-process serial engine, memoization accounting included.
func TestWindowedMatchesSerial(t *testing.T) {
	ins := drawInstances(4)
	ins = append(ins, ins[1], ins[2]) // duplicates for the memoization path
	set := testSettings()
	set.Parallelism = 2 // forwarded: sizes each worker's in-process pool

	want, wantStats := batch.Run(aurvJobs(t, ins, set), 1)
	got, gotStats, err := runOnce(aurvJobs(t, ins, set), 1, Config{Procs: 2, Window: 4})
	if err != nil {
		t.Fatalf("windowed run failed: %v", err)
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("windowed results differ from in-process serial")
	}
	if gotStats.Executed != wantStats.Executed || gotStats.Executed != len(ins)-2 {
		t.Fatalf("Executed = %d, want %d", gotStats.Executed, len(ins)-2)
	}
	if gotStats.Met != wantStats.Met || gotStats.Segments != wantStats.Segments {
		t.Fatalf("aggregate stats diverge: %+v vs %+v", gotStats, wantStats)
	}
}

// windowedFlakyWorker speaks a valid hello, reads `swallow` job frames
// without answering any, and drops the connection — a worker dying
// with a whole window of jobs in flight.
func windowedFlakyWorker(t *testing.T, l net.Listener, swallow int) {
	conn, err := l.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello(0)); err != nil {
		t.Error(err)
		return
	}
	for k := 0; k < swallow; k++ {
		if _, _, err := wire.ReadFrame(conn); err != nil {
			return // coordinator may not have that many jobs for us
		}
	}
}

// TestWorkerDeathWindowRequeues kills a worker holding a non-trivial
// window of in-flight jobs and checks the survivor completes the batch
// with every job executed exactly once on it: all in-flight jobs were
// requeued (none lost), none duplicated (no double settle), the
// streamed order is still the input order, and Stats.Executed still
// reports the memoization count, not the requeue traffic.
func TestWorkerDeathWindowRequeues(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	go windowedFlakyWorker(t, l, 3) // die with up to 3 jobs in flight

	// A survivor that counts the job frames it serves.
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer sl.Close()
	var served int64
	go func() {
		conn, err := sl.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		pr, pw := io.Pipe()
		go func() {
			// Tap the stream frame by frame, counting job frames.
			br := bufio.NewReader(conn)
			bw := bufio.NewWriter(pw)
			for {
				typ, payload, err := wire.ReadFrame(br)
				if err != nil {
					pw.CloseWithError(err)
					return
				}
				if typ == wire.FrameJob {
					atomic.AddInt64(&served, 1)
				}
				if err := wire.WriteFrame(bw, typ, payload); err != nil || bw.Flush() != nil {
					pw.CloseWithError(io.ErrClosedPipe)
					return
				}
			}
		}()
		Serve(pr, conn, ServeOptions{})
	}()

	ins := drawInstances(4)
	ins = append(ins, ins[0]) // one duplicate
	set := testSettings()
	jobs := aurvJobs(t, ins, set)
	want, wantStats := batch.Run(aurvJobs(t, ins, set), 1)

	f, err := Dial(Config{
		Hosts:       tcpHosts(l.Addr().String(), sl.Addr().String()),
		Window:      4,
		MaxRespawns: -1, // the flaky fake never accepts again
	})
	if err != nil {
		t.Fatalf("stream start failed: %v", err)
	}
	st := f.RunStream(jobs, 1)
	var got []sim.Result
	for r := range st.Results() {
		got = append(got, r)
	}
	f.Close()
	if err := st.Err(); err != nil {
		t.Fatalf("stream ended with error: %v", err)
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("results after windowed death/requeue differ from in-process serial")
	}
	if st.Stats().Executed != wantStats.Executed || st.Stats().Executed != len(ins)-1 {
		t.Fatalf("Stats.Executed = %d, want %d (requeues must not inflate it)",
			st.Stats().Executed, len(ins)-1)
	}
	// Every unique job ran exactly once on the survivor: the flaky
	// worker answered nothing, so fewer frames would mean lost jobs and
	// more would mean a double requeue.
	if n := atomic.LoadInt64(&served); n != int64(len(ins)-1) {
		t.Fatalf("survivor served %d jobs, want %d (each in-flight job requeued exactly once)",
			n, len(ins)-1)
	}
}

// TestTCPRespawnMidRun pins the dynamic-fleet half of the tentpole: a
// single-host fleet whose worker dies mid-run must re-dial the host
// and finish the batch — byte-identically, with no run-level error —
// instead of retiring the slot and stranding the jobs. The death is
// scripted through the chaos rig: the first connection's stream to the
// coordinator is cut at its first reply frame (the hello is frame 0),
// so the worker provably held a job when it "crashed"; the redial gets
// the clean Default script and finishes the batch.
func TestTCPRespawnMidRun(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	go NewServer(ServeOptions{}).Serve(l)
	p, err := NewChaosProxy(l.Addr().String(), ChaosPlan{
		Scripts: []ConnScript{{ToCoord: []Fault{{Kind: FaultDrop, Frame: 1}}}},
	})
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer p.Close()

	ins := drawInstances(3)
	set := testSettings()
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)
	got, _, err := runOnce(aurvJobs(t, ins, set), 1, Config{
		Hosts:      tcpHosts(p.Addr()),
		Window:     2,
		RedialWait: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("run with a respawning worker failed: %v", err)
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("results after mid-run re-dial differ from in-process serial")
	}
}

// TestStdioRespawnMidRun is the subprocess flavor: the spawned worker
// (this test binary, hijacked by maybeFlakyStdio) dies after
// swallowing one job; the coordinator must respawn the subprocess and
// finish byte-identically with no run-level error.
func TestStdioRespawnMidRun(t *testing.T) {
	marker := filepath.Join(t.TempDir(), "died-once")
	t.Setenv(flakyStdioEnv, marker)

	ins := drawInstances(3)
	set := testSettings()
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)
	got, _, err := runOnce(aurvJobs(t, ins, set), 1, Config{
		Procs:      1,
		Window:     2,
		RedialWait: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("run with a respawning subprocess failed: %v", err)
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("results after mid-run respawn differ from in-process serial")
	}
	if _, err := os.Stat(marker); err != nil {
		t.Fatal("flaky worker never engaged: the test proved nothing")
	}
}

// TestRespawnBudgetExhausted: a worker that dies on every connection
// must not be re-dialed forever — the slot retires after its budget
// and the run errors out (the caller's cue to fall back in-process).
func TestRespawnBudgetExhausted(t *testing.T) {
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
	_, _, err = runOnce(aurvJobs(t, ins, testSettings()), 1, Config{
		Hosts:       tcpHosts(l.Addr().String()),
		MaxRespawns: 2,
		RedialWait:  5 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("run against an always-dying worker reported success")
	}
}

// TestDistSweepMatchesInProcess pins the distributed T5 sweep to the
// in-process chunked sweep, exactly, for several worker/window
// shapes — the acceptance criterion of the distributed Monte-Carlo
// tentpole leg.
func TestDistSweepMatchesInProcess(t *testing.T) {
	const n = 200_000 // 4 chunks of 65536
	eps := []float64{0.25, 0.35, 0.5}
	box := measure.DefaultBox()
	const seed = 5

	for _, workers := range []int{1, 4} {
		want := measure.SweepParallel(n, eps, box, seed, workers)
		for _, cfg := range []Config{
			{Procs: 1, Window: 1},
			{Procs: 2, Window: 2},
			{Procs: 2, Window: 4},
		} {
			f, err := Dial(cfg)
			if err != nil {
				t.Fatalf("fleet dial (cfg=%+v) failed: %v", cfg, err)
			}
			got, err := f.Sweep(n, eps, box, seed, workers)
			f.Close()
			if err != nil {
				t.Fatalf("dist sweep (workers=%d cfg=%+v) failed: %v", workers, cfg, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dist sweep (workers=%d cfg=%+v) diverges:\n%+v\nvs\n%+v", workers, cfg, got, want)
			}
		}
	}
	// The fallback path is the same function.
	var none *Fleet
	if got := none.SweepOrFallback(n, eps, box, seed, 2); !reflect.DeepEqual(got, measure.SweepParallel(n, eps, box, seed, 2)) {
		t.Fatal("SweepOrFallback without a fleet diverges from SweepParallel")
	}
}

// TestSweepFallbackSplicesDeliveredChunks: when the fleet dies mid-
// sweep, the fallback must keep the chunks the fleet delivered and
// recompute only the holes — and the spliced total must still equal
// the in-process sweep exactly.
func TestSweepFallbackSplicesDeliveredChunks(t *testing.T) {
	const n = 200_000 // 4 chunks
	eps := []float64{0.25, 0.35, 0.5}
	box := measure.DefaultBox()
	const seed = 5

	// A worker that answers exactly two chunks, then dies — the only
	// member of the fleet, with respawn disabled, so the dispatch ends
	// in error with a delivered prefix of 2 chunks.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello(0)); err != nil {
			return
		}
		for k := 0; k < 2; k++ {
			typ, payload, err := wire.ReadFrame(conn)
			if err != nil || typ != wire.FrameSweepJob {
				return
			}
			seq, body, err := wire.SplitSeq(payload)
			if err != nil {
				return
			}
			sj, err := wire.DecodeSweepJob(body)
			if err != nil {
				return
			}
			s := measure.Sweep(sj.N, sj.Eps, sj.Box, sj.Seed)
			if err := wire.WriteFrame(conn, wire.FrameSweepResult,
				wire.AppendSeq(seq, wire.EncodeMeasureStats(s))); err != nil {
				return
			}
		}
	}()

	var log bytes.Buffer
	f, err := Dial(Config{
		Hosts:       tcpHosts(l.Addr().String()),
		Window:      1,
		MaxRespawns: -1,
		Stderr:      &log,
	})
	if err != nil {
		t.Fatalf("fleet dial failed: %v", err)
	}
	got := f.SweepOrFallback(n, eps, box, seed, 1)
	f.Close()
	if want := measure.SweepParallel(n, eps, box, seed, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("spliced fallback sweep diverges:\n%+v\nvs\n%+v", got, want)
	}
	// The splice must actually have happened: 2 of 4 chunks recomputed.
	if s := log.String(); !strings.Contains(s, "falling back in-process for 2/4 chunks") {
		t.Fatalf("fallback did not splice the delivered prefix:\n%s", s)
	}
}
