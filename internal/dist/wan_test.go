package dist

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/inst"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/wire"
)

// WAN differential suite: the wire-path optimizations — negotiated
// compression, chunked trace streaming, pooled frame buffers — are
// transport-only, so every combination of them, through every link the
// chaos rig can model (delay lines, bandwidth caps, faults), must leave
// the batch byte-identical to the in-process serial engine. These tests
// are the byte-identity proof for the WAN path; the speedup claim lives
// in BenchmarkDistT2WAN.

// wanScript models the paper-benchmark WAN: a few milliseconds of
// propagation delay and a capped pipe, both directions.
func wanScript() ConnScript {
	return ConnScript{Delay: 2 * time.Millisecond, Bandwidth: 4 << 20}
}

// algZig is a test-only algorithm whose agents zigzag without ever
// meeting: every segment records a trace point, so a modest TraceCap
// yields the long, dense traces the streaming and compression paths
// exist for — which the AURV workloads (meeting within a few segments)
// cannot produce.
const algZig = "test-wan-zigzag"

func init() {
	wire.RegisterAlgorithm(algZig, func(inst.Instance) prog.Program {
		zigs := make([]prog.Instr, 0, 800)
		for i := 0; i < 400; i++ {
			zigs = append(zigs, prog.Move(prog.North, 1), prog.Move(prog.South, 1))
		}
		return prog.Instrs(zigs...)
	})
}

// zigInstances are far enough apart that the zigzag never meets: the
// traces run the full program.
func zigInstances() []inst.Instance {
	return []inst.Instance{
		{R: 0.1, X: 50, Y: 0, Phi: 0, Tau: 1, V: 1, T: 0, Chi: 1},
		{R: 0.1, X: 60, Y: 5, Phi: 0.5, Tau: 1, V: 1, T: 0.5, Chi: 1},
		{R: 0.1, X: 70, Y: -5, Phi: 1, Tau: 1, V: 1, T: 1, Chi: -1},
	}
}

// zigJobs builds the trace-heavy differential workload.
func zigJobs(t *testing.T, set sim.Settings) []batch.Job {
	t.Helper()
	ins := zigInstances()
	ins = append(ins, ins[0]) // a duplicate keeps memoization in the frame
	return algJobs(t, algZig, ins, set)
}

// TestCompressDifferential runs a trace-heavy batch with negotiated
// compression through the bandwidth-capped, delay-lined proxy and pins
// byte identity, execution accounting, and the flight recorder's view
// of the compression (raw bytes > wire bytes on both ends).
func TestCompressDifferential(t *testing.T) {
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl.Close()
	go NewServer(ServeOptions{}).Serve(wl)

	ins := drawInstances(3)
	ins = append(ins, ins[0]) // a duplicate keeps memoization in the frame
	set := testSettings()
	set.TraceCap = 512 // trace payloads give the compressor something to bite
	want, wantStats := batch.Run(aurvJobs(t, ins, set), 1)

	p, err := NewChaosProxy(wl.Addr().String(), ChaosPlan{Default: wanScript()})
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer p.Close()

	tx0, rx0 := mWireTxBytes.Value(), mWireRxBytes.Value()
	wtx0, wraw0 := wWireTxBytes.Value(), wWireRawBytes.Value()

	var log bytes.Buffer
	got, gotStats, err := runOnce(aurvJobs(t, ins, set), 1, Config{
		Hosts:    tcpHosts(p.Addr()),
		Compress: true,
		Stderr:   &log,
	})
	if err != nil {
		t.Fatalf("compressed WAN run failed: %v\ncoordinator log:\n%s", err, log.String())
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("compressed WAN results differ from in-process serial")
	}
	if gotStats.Executed != wantStats.Executed {
		t.Fatalf("Executed = %d under compression, want %d", gotStats.Executed, wantStats.Executed)
	}

	// The recorder saw the stream: both sides counted bytes, and the
	// worker's reply stream (trace-heavy results) genuinely shrank.
	if d := mWireTxBytes.Value() - tx0; d == 0 {
		t.Error("coordinator tx byte counter never moved")
	}
	if d := mWireRxBytes.Value() - rx0; d == 0 {
		t.Error("coordinator rx byte counter never moved")
	}
	wtx, wraw := wWireTxBytes.Value()-wtx0, wWireRawBytes.Value()-wraw0
	if wtx == 0 || wraw == 0 {
		t.Fatalf("worker byte counters never moved: tx %d raw %d", wtx, wraw)
	}
	if wtx >= wraw {
		t.Errorf("worker reply stream did not shrink: %d wire bytes for %d raw", wtx, wraw)
	}
	if r := gwCompressionRatio.Value(); r <= 1 {
		t.Errorf("worker compression ratio gauge = %v, want > 1", r)
	}
}

// TestCompressFaultDifferential: a mid-run fault on a compressing
// connection must recover exactly like an uncompressed one — the redial
// renegotiates compression from the hello up and the batch stays
// byte-identical.
func TestCompressFaultDifferential(t *testing.T) {
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl.Close()
	go NewServer(ServeOptions{}).Serve(wl)

	ins := drawInstances(3)
	set := testSettings()
	set.TraceCap = 512
	want, wantStats := batch.Run(aurvJobs(t, ins, set), 1)

	for _, kind := range []struct {
		name string
		k    FaultKind
	}{{"drop", FaultDrop}, {"truncate", FaultTruncate}, {"corrupt", FaultCorrupt}} {
		t.Run(kind.name, func(t *testing.T) {
			p, err := NewChaosProxy(wl.Addr().String(), ChaosPlan{
				Scripts: []ConnScript{{
					Delay:     time.Millisecond,
					Bandwidth: 4 << 20,
					ToCoord:   []Fault{{Kind: kind.k, Frame: 1}},
				}},
				Default: wanScript(),
			})
			if err != nil {
				t.Skipf("loopback listen unavailable: %v", err)
			}
			defer p.Close()
			var log bytes.Buffer
			got, gotStats, err := runOnce(aurvJobs(t, ins, set), 1, Config{
				Hosts:        tcpHosts(p.Addr()),
				Compress:     true,
				Window:       2,
				RedialWait:   2 * time.Millisecond,
				StallTimeout: 300 * time.Millisecond,
				Stderr:       &log,
			})
			if err != nil {
				t.Fatalf("compressed run under %s fault failed: %v\ncoordinator log:\n%s",
					kind.name, err, log.String())
			}
			if !bytes.Equal(encodeAll(got), encodeAll(want)) {
				t.Fatalf("compressed results under %s fault differ from in-process serial", kind.name)
			}
			if gotStats.Executed != wantStats.Executed {
				t.Fatalf("Executed = %d under %s fault, want %d", gotStats.Executed, kind.name, wantStats.Executed)
			}
		})
	}
}

// TestTraceStreamingDifferential drops the chunk threshold so every
// trace-bearing result streams as FrameTraceChunk frames, and pins the
// reassembled batch byte-identical — compression off and on (chunked
// AND deflated is the full WAN path). The worker serves in-process, so
// the lowered threshold is shared by both ends of the stream.
func TestTraceStreamingDifferential(t *testing.T) {
	old := traceChunkPoints
	traceChunkPoints = 48 // force multi-chunk streams at a small TraceCap
	defer func() { traceChunkPoints = old }()

	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl.Close()
	go NewServer(ServeOptions{}).Serve(wl)

	set := testSettings()
	set.TraceCap = 300 // ~7 chunks per trace at the lowered threshold
	want, wantStats := batch.Run(zigJobs(t, set), 1)
	for i, r := range want {
		if len(r.TraceA)+len(r.TraceB) <= traceChunkPoints {
			t.Fatalf("result %d carries %d+%d trace points, not enough to stream — the differential would be vacuous",
				i, len(r.TraceA), len(r.TraceB))
		}
	}

	for _, compress := range []bool{false, true} {
		name := "raw"
		if compress {
			name = "compressed"
		}
		t.Run(name, func(t *testing.T) {
			var log bytes.Buffer
			got, gotStats, err := runOnce(zigJobs(t, set), 1, Config{
				Hosts:    tcpHosts(wl.Addr().String()),
				Compress: compress,
				Window:   2,
				Stderr:   &log,
			})
			if err != nil {
				t.Fatalf("streamed-trace run failed: %v\ncoordinator log:\n%s", err, log.String())
			}
			if !bytes.Equal(encodeAll(got), encodeAll(want)) {
				t.Fatal("streamed-trace results differ from in-process serial")
			}
			if gotStats.Executed != wantStats.Executed {
				t.Fatalf("Executed = %d with trace streaming, want %d", gotStats.Executed, wantStats.Executed)
			}
		})
	}
}

// TestTraceStreamingFaultDifferential kills the connection while trace
// chunks are in flight: the partial assembly must be discarded with the
// dead connection and the requeued job must restart its stream cleanly
// on the redial — bytes identical, executions accounted once.
func TestTraceStreamingFaultDifferential(t *testing.T) {
	old := traceChunkPoints
	traceChunkPoints = 48
	defer func() { traceChunkPoints = old }()

	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl.Close()
	go NewServer(ServeOptions{}).Serve(wl)

	set := testSettings()
	set.TraceCap = 300
	want, wantStats := batch.Run(zigJobs(t, set), 1)

	// Frame 2 of the reply stream is mid-trace for the first job: the
	// hello is frame 0 and the first chunk follows immediately after.
	p, err := NewChaosProxy(wl.Addr().String(), ChaosPlan{
		Scripts: []ConnScript{{ToCoord: []Fault{{Kind: FaultDrop, Frame: 2}}}},
	})
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer p.Close()

	var log bytes.Buffer
	got, gotStats, err := runOnce(zigJobs(t, set), 1, Config{
		Hosts:        tcpHosts(p.Addr()),
		Compress:     true,
		Window:       2,
		RedialWait:   2 * time.Millisecond,
		StallTimeout: 300 * time.Millisecond,
		Stderr:       &log,
	})
	if err != nil {
		t.Fatalf("mid-stream drop run failed: %v\ncoordinator log:\n%s", err, log.String())
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("results after a mid-stream drop differ from in-process serial")
	}
	if gotStats.Executed != wantStats.Executed {
		t.Fatalf("Executed = %d after a mid-stream drop, want %d", gotStats.Executed, wantStats.Executed)
	}
}

// TestCompressOffByWorker: a worker that opts out (rvworker
// -compress=false) advertises no capability, and a Compress-on
// coordinator simply runs the stream raw — not an error, and still
// byte-identical.
func TestCompressOffByWorker(t *testing.T) {
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl.Close()
	srv := NewServer(ServeOptions{NoCompress: true})
	go srv.Serve(wl)
	defer srv.Shutdown()

	ins := drawInstances(2)
	set := testSettings()
	set.TraceCap = 256
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)

	got, _, err := runOnce(aurvJobs(t, ins, set), 1, Config{
		Hosts:    tcpHosts(wl.Addr().String()),
		Compress: true,
	})
	if err != nil {
		t.Fatalf("run against an opted-out worker failed: %v", err)
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("opted-out-worker results differ from in-process serial")
	}
}
