package dist

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/wire"
)

// WorkerEnv is the environment marker that switches a re-executed
// binary into worker mode (see MaybeServeStdio). Spawned stdio workers
// get it set by the coordinator.
const WorkerEnv = "RV_DIST_WORKER"

// ServeOptions shape one worker stream's execution.
type ServeOptions struct {
	// Pool caps the in-worker execution pool. 0 sizes the pool from the
	// stream's pool hint (wire.FramePool, the coordinator forwarding a
	// host:port*pool flag) or, absent one, from the first job's
	// forwarded Settings.Parallelism (itself ≤ 0 meaning GOMAXPROCS);
	// > 0 overrides both (the rvworker -pool flag, for hosts that run
	// several worker processes); negative forces strictly serial
	// execution.
	Pool int
	// Log, when non-nil, receives one "stream served" Info event per
	// served stream (peer name, job count) after the stream ends. The
	// rvworker -v flag wires it to the process logger; CI counts these
	// events to assert a shared-fleet run handshakes exactly once.
	Log *slog.Logger
	// Name labels the stream in Log events (e.g. the peer address);
	// empty means "stream".
	Name string
	// NoCompress stops the stream's hello from advertising
	// wire.CapCompress, so a coordinator asking for compression gets a
	// plain stream (the rvworker -compress=false flag: a worker whose
	// CPU is its scarce resource opts out fleet-wide).
	NoCompress bool
}

// streamStats is one stream's flight-recorder state, mirrored into
// the wire.WorkerStats payload of every pong this stream echoes.
// Counters are written by the read loop and the executor goroutines,
// read by pong — hence atomics.
type streamStats struct {
	served   atomic.Uint64
	executed atomic.Uint64
	errors   atomic.Uint64
	pings    atomic.Uint64
	inflight atomic.Int64
	pool     atomic.Int64
}

func (st *streamStats) wire() wire.WorkerStats {
	return wire.WorkerStats{
		Served:   st.served.Load(),
		Executed: st.executed.Load(),
		Errors:   st.errors.Load(),
		Pings:    st.pings.Load(),
		InFlight: uint32(max(st.inflight.Load(), 0)),
		Pool:     uint32(max(st.pool.Load(), 0)),
	}
}

// materialize rebuilds the executable batch job a wire job describes,
// looking the algorithm up in the registry. It mirrors exactly how
// rendezvous.SimulateBatch builds its jobs, which is what makes a
// worker-computed result byte-identical to a coordinator-computed one.
func materialize(j wire.Job) (batch.Job, error) {
	mk, ok := wire.Algorithm(j.Alg)
	if !ok {
		return batch.Job{}, fmt.Errorf("dist: algorithm %q is not registered in this worker", j.Alg)
	}
	return batch.Job{
		A:        sim.AgentSpec{Attrs: j.In.AgentA(), Prog: mk(j.In), Radius: j.In.R},
		B:        sim.AgentSpec{Attrs: j.In.AgentB(), Prog: mk(j.In), Radius: j.In.R},
		Settings: j.Set,
	}, nil
}

// poolSize resolves the in-worker pool for a stream whose coordinator
// sent pool hint `hint` (0: none) and whose first job forwarded
// parallelism `par`.
func poolSize(par, hint int, opts ServeOptions) int {
	switch {
	case opts.Pool > 0:
		return opts.Pool
	case opts.Pool < 0:
		return 1
	case hint > 0:
		return hint
	case par > 0:
		return par
	default:
		return runtime.GOMAXPROCS(0)
	}
}

// coalesceBytes bounds how many reply bytes a stream buffers before
// flushing even while executors are still busy: coalescing exists to
// cut per-result flush syscalls on chunky workloads, not to hold a
// window of finished results hostage to one slow job.
const coalesceBytes = 64 << 10

// coalesceAge bounds how long the oldest pending reply may wait for
// company. Replies that finish within this of each other (a pool
// draining a burst of small results — the syscall-heavy case) travel
// as one frame; a reply whose successors are slower goes out on the
// next completion instead of waiting for the full drain, so a
// saturated pipeline keeps feeding the coordinator incrementally
// rather than in lockstep window rounds. inflight > 0 guarantees a
// future finish to perform the age check, so no timer is needed.
const coalesceAge = time.Millisecond

// replyBatcher coalesces one stream's outgoing replies: every finished
// job appends its reply to the pending batch, and the batch flushes as
// one frame (wire.FrameReplyBatch; a lone reply travels as its classic
// single frame) when the last in-flight executor finishes (the window
// drain), when the pending bytes pass coalesceBytes, or when the
// oldest pending reply has waited coalesceAge — whichever comes first.
// Batching changes syscall counts and flush timing, never a byte of
// any result.
type replyBatcher struct {
	mu       sync.Mutex
	bw       *bufio.Writer
	fw       *wire.FrameWriter // framing over bw; nil in unit tests makes newReplyBatcher wrap bw
	st       *streamStats      // stream flight recorder; nil in unit tests of the batcher alone
	age      time.Duration     // max wait of the oldest pending reply; 0 = coalesceAge
	err      error             // first write failure; sticks, suppressing the rest
	inflight int
	pending  []wire.Reply
	owned    []*wire.Buf // pooled bodies to release once flushed; index-parallel with pending, entries may be nil
	bytes    int
	scratch  []byte    // reused FrameReplyBatch assembly
	oldest   time.Time // when the oldest pending reply was added
	lastRaw  uint64    // fw.Stats() watermark for the tx byte counters
	lastWire uint64
}

// begin reserves an in-flight slot for a job entering the executor
// pool; its finish releases the slot and may trigger the drain flush.
func (rb *replyBatcher) begin() {
	rb.mu.Lock()
	rb.inflight++
	rb.mu.Unlock()
	if rb.st != nil {
		rb.st.inflight.Add(1)
		gwInflight.Add(1)
	}
}

// account records one produced reply in the stream and process flight
// recorders (observation only — the reply bytes are already queued).
func (rb *replyBatcher) account(typ byte) {
	if rb.st == nil {
		return
	}
	if typ == wire.FrameError {
		rb.st.errors.Add(1)
		wErrors.Inc()
	} else {
		rb.st.executed.Add(1)
		wReplies.Inc()
	}
}

// post queues one reply produced directly on the read loop (decode
// failures answered in order, without an executor).
func (rb *replyBatcher) post(seq uint64, typ byte, body []byte) {
	rb.mu.Lock()
	rb.add(seq, typ, body, nil)
	rb.maybeFlush()
	rb.mu.Unlock()
	rb.account(typ)
}

// finish queues one executor's reply — its body living in a pooled
// buffer the batcher releases after the flush — and releases the
// executor's in-flight slot.
func (rb *replyBatcher) finish(seq uint64, typ byte, pb *wire.Buf) {
	rb.mu.Lock()
	rb.inflight--
	rb.add(seq, typ, pb.B, pb)
	rb.maybeFlush()
	rb.mu.Unlock()
	if rb.st != nil {
		rb.st.inflight.Add(-1)
		gwInflight.Add(-1)
	}
	rb.account(typ)
}

// chunk queues one trace chunk of a streamed result. Chunks keep the
// job's in-flight slot (only the closing finish releases it) and are
// not replies in the flight recorder's sense; each chunk runs tens of
// kilobytes, so the byte bound flushes the batch promptly and a
// streamed trace never accumulates in worker memory.
func (rb *replyBatcher) chunk(seq uint64, pb *wire.Buf) {
	rb.mu.Lock()
	rb.add(seq, wire.FrameTraceChunk, pb.B, pb)
	rb.maybeFlush()
	rb.mu.Unlock()
}

func (rb *replyBatcher) add(seq uint64, typ byte, body []byte, owned *wire.Buf) {
	if rb.err != nil {
		if owned != nil {
			owned.Release()
		}
		return
	}
	if len(rb.pending) == 0 {
		rb.oldest = time.Now()
	}
	rb.pending = append(rb.pending, wire.Reply{Seq: seq, Typ: typ, Body: body})
	rb.owned = append(rb.owned, owned)
	rb.bytes += 13 + len(body)
}

func (rb *replyBatcher) maybeFlush() {
	age := rb.age
	if age == 0 {
		age = coalesceAge
	}
	if rb.inflight == 0 || rb.bytes >= coalesceBytes ||
		(len(rb.pending) > 0 && time.Since(rb.oldest) >= age) {
		rb.flush()
	}
}

// writer returns the stream's frame writer, wrapping the raw buffered
// writer on first use (unit tests construct bare batchers).
func (rb *replyBatcher) writer() *wire.FrameWriter {
	if rb.fw == nil {
		rb.fw = wire.NewFrameWriter(rb.bw)
	}
	return rb.fw
}

// flush writes the pending replies as one frame and releases their
// pooled bodies. Callers hold mu.
func (rb *replyBatcher) flush() {
	if rb.err != nil || len(rb.pending) == 0 {
		return
	}
	fw := rb.writer()
	var err error
	if len(rb.pending) == 1 {
		r := rb.pending[0]
		err = fw.WriteFrameSeq(r.Typ, r.Seq, r.Body)
	} else {
		rb.scratch = wire.AppendReplies(rb.scratch[:0], rb.pending)
		err = fw.WriteFrame(wire.FrameReplyBatch, rb.scratch)
	}
	if err == nil {
		err = rb.bw.Flush()
	}
	rb.err = err
	for i := range rb.owned {
		rb.owned[i].Release()
	}
	for i := range rb.pending {
		rb.pending[i] = wire.Reply{}
	}
	for i := range rb.owned {
		rb.owned[i] = nil
	}
	rb.pending = rb.pending[:0]
	rb.owned = rb.owned[:0]
	rb.bytes = 0
	if rb.st != nil {
		tx := fw.Stats()
		wWireRawBytes.Add(tx.Raw - rb.lastRaw)
		wWireTxBytes.Add(tx.Wire - rb.lastWire)
		rb.lastRaw, rb.lastWire = tx.Raw, tx.Wire
		if fw.Compressing() && tx.Wire > 0 {
			gwCompressionRatio.Set(float64(tx.Raw) / float64(tx.Wire))
		}
	}
}

func (rb *replyBatcher) dead() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.err != nil
}

// pong answers a liveness probe immediately, bypassing reply
// coalescing: the pong's primary job is to prove the process and the
// link alive while slow executors keep the stream otherwise silent,
// so it must not wait for reply company. Since wire v5 the echo also
// carries the stream's WorkerStats — a free flight-recorder read for
// the coordinator. Pending replies flush along with it (the stream
// stays ordered enough — the coordinator matches by sequence number,
// and a pong carries none).
func (rb *replyBatcher) pong(payload []byte) {
	var ws wire.WorkerStats
	if rb.st != nil {
		rb.st.pings.Add(1)
		wPings.Inc()
		ws = rb.st.wire()
	}
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.err != nil {
		return
	}
	if err := rb.writer().WriteFrame(wire.FramePong, wire.EncodePong(payload, ws)); err != nil {
		rb.err = err
		return
	}
	if err := rb.bw.Flush(); err != nil {
		rb.err = err
	}
}

// enableCompression turns on deflation for the stream's outgoing
// frames (the coordinator sent FrameCompress). Under mu so it cannot
// interleave with a flush in progress.
func (rb *replyBatcher) enableCompression(minSize int) {
	rb.mu.Lock()
	rb.writer().EnableCompression(minSize)
	rb.mu.Unlock()
}

// safeExecute runs one job's executor, converting a panic into the
// deterministic per-job FrameError reply: a simulation is a pure
// function of its job, so a panicking job would panic identically on
// every worker it is requeued to — report it once as a job failure
// instead of killing a worker process (and, requeue by requeue, the
// fleet's whole respawn budget) per retry.
func safeExecute(execute func() (byte, *wire.Buf)) (typ byte, body *wire.Buf) {
	defer func() {
		if p := recover(); p != nil {
			pb := wire.GetBuf()
			pb.B = fmt.Appendf(pb.B, "job panicked on worker: %v", p)
			typ, body = wire.FrameError, pb
		}
	}()
	return execute()
}

// traceChunkPoints is the trace streaming knob: a result whose traces
// total more points than this streams as FrameTraceChunk frames of at
// most this many points each, closed by a streamed-result frame,
// instead of materializing one giant result frame. 4096 points ≈ 96KiB
// per chunk — big enough to amortize framing, small enough that the
// coordinator's torn-frame defenses and the batcher's byte bound keep
// working. A var, not a const, so tests can lower it to exercise
// streaming with small traces.
var traceChunkPoints = 4096

// streamTraces posts a result's traces as bounded chunk frames through
// the reply batcher, in order: all of trace A, then all of trace B,
// then the caller's streamed-result closer. Per-stream write order is
// what lets the coordinator reassemble by plain append.
func streamTraces(rb *replyBatcher, seq uint64, res sim.Result) {
	streamOne := func(which byte, tr []sim.TracePoint) {
		for i, idx := 0, uint32(0); i < len(tr); idx++ {
			end := min(i+traceChunkPoints, len(tr))
			cb := wire.GetBuf()
			cb.B = wire.AppendTraceChunk(cb.B, which, idx, tr[i:end])
			rb.chunk(seq, cb)
			i = end
		}
	}
	streamOne(wire.TraceChunkA, res.TraceA)
	streamOne(wire.TraceChunkB, res.TraceB)
}

// Serve runs the worker side of the protocol on one byte stream: send
// hello, then answer job frames (simulation jobs and Monte-Carlo sweep
// chunks) with result frames until the stream ends. Jobs execute on an
// in-worker pool sized by the stream's pool hint or the forwarded
// Settings.Parallelism of the stream's first job (see
// ServeOptions.Pool), so a single worker process saturates a whole
// host when the coordinator's send window keeps its pool fed; replies
// go out as jobs finish — out of coordinator order when the pool
// reorders them, and coalesced several to a frame when they finish
// close together (replyBatcher) — and the coordinator matches them by
// sequence number. Purity makes both invisible in the results.
// A clean EOF between frames returns nil (after the in-flight jobs
// drain); anything else is an error. A session coordinator holds one
// stream open across many batches, so returning means the session
// ended, not just a batch.
//
// Serve is one of the worker's three entry points: Server serves it
// over every connection a TCP listener accepts, and MaybeServeStdio
// serves it on stdin/stdout for coordinator-spawned subprocesses.
func Serve(r io.Reader, w io.Writer, opts ServeOptions) error {
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)
	caps := wire.CapCompress
	if opts.NoCompress {
		caps = 0
	}
	if err := wire.WriteFrame(bw, wire.FrameHello, wire.EncodeHello(caps)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	wStreams.Inc()
	st := &streamStats{}
	fr := wire.NewFrameReader(br)
	rb := &replyBatcher{bw: bw, fw: wire.NewFrameWriter(bw), st: st}
	var (
		wg      sync.WaitGroup
		pool    chan struct{}
		poolCap int
		hint    int
		served  int
	)
	finish := func(readErr error) error {
		wg.Wait() // drain in-flight executors before reporting
		rb.mu.Lock()
		rb.flush() // safety net; the last finish() already drained
		werr := rb.err
		rb.mu.Unlock()
		if opts.Log != nil {
			name := opts.Name
			if name == "" {
				name = "stream"
			}
			opts.Log.Info("rvworker: stream served", "peer", name, "jobs", served)
		}
		if readErr != nil {
			return readErr
		}
		return werr
	}

	var lastRx uint64
	for {
		typ, pb, err := fr.ReadFrame()
		if err == io.EOF {
			return finish(nil) // coordinator closed the stream: done
		}
		if err != nil {
			return finish(err)
		}
		if rx := fr.Stats(); rx.Wire != lastRx {
			wWireRxBytes.Add(rx.Wire - lastRx)
			lastRx = rx.Wire
		}
		payload := pb.B
		if rb.dead() {
			// A reply already failed to write: the coordinator is gone.
			// Executing jobs still buffered on the read side would burn
			// CPU on results nobody can receive.
			pb.Release()
			return finish(nil)
		}
		if typ == wire.FramePing {
			// Liveness probe: echo the payload verbatim, from the read
			// loop, so the answer never queues behind the executors.
			rb.pong(payload)
			pb.Release()
			continue
		}
		if typ == wire.FramePool {
			// Stream configuration, not a job: the per-host pool hint,
			// sent before the first job (late hints cannot resize a pool
			// already running and are ignored).
			h, err := wire.DecodePoolHint(payload)
			pb.Release()
			if err != nil {
				return finish(err)
			}
			if pool == nil {
				hint = h
			}
			continue
		}
		if typ == wire.FrameCompress {
			// Stream configuration: the coordinator saw our CapCompress
			// and turned compression on. Everything it sends from here
			// on may be compressed; our replies deflate symmetrically.
			minSize, err := wire.DecodeCompressHint(payload)
			pb.Release()
			if err != nil {
				return finish(err)
			}
			if !opts.NoCompress {
				fr.EnableCompression()
				rb.enableCompression(minSize)
			}
			continue
		}
		seq, body, err := wire.SplitSeq(payload)
		if err != nil {
			pb.Release()
			return finish(err)
		}

		// Decode on the read loop (cheap, and malformed jobs answer
		// FrameError in order); execute on the pool. Decoding copies
		// everything out of the frame buffer, so it is released here.
		var execute func() (byte, *wire.Buf)
		var par int
		switch typ {
		case wire.FrameJob:
			j, err := wire.DecodeJob(body)
			pb.Release()
			if err != nil {
				rb.post(seq, wire.FrameError, []byte(err.Error()))
				continue
			}
			bj, err := materialize(j)
			if err != nil {
				rb.post(seq, wire.FrameError, []byte(err.Error()))
				continue
			}
			par = j.Set.Parallelism
			execute = func() (byte, *wire.Buf) {
				res := sim.Run(bj.A, bj.B, bj.Settings)
				out := wire.GetBuf()
				if len(res.TraceA)+len(res.TraceB) > traceChunkPoints {
					streamTraces(rb, seq, res)
					out.B = wire.AppendStreamedResult(out.B, res)
				} else {
					out.B = wire.AppendResult(out.B, res)
				}
				return wire.FrameResult, out
			}
		case wire.FrameSweepJob:
			sj, err := wire.DecodeSweepJob(body)
			pb.Release()
			if err != nil {
				rb.post(seq, wire.FrameError, []byte(err.Error()))
				continue
			}
			par = sj.Par
			execute = func() (byte, *wire.Buf) {
				out := wire.GetBuf()
				out.B = append(out.B, wire.EncodeMeasureStats(measure.Sweep(sj.N, sj.Eps, sj.Box, sj.Seed))...)
				return wire.FrameSweepResult, out
			}
		default:
			pb.Release()
			return finish(fmt.Errorf("dist: worker received unexpected frame type %d", typ))
		}
		served++
		st.served.Add(1)
		wJobs.Inc()

		// Size the pool from the job's resolved parallelism. Jobs of one
		// batch share settings, but a session stream carries many batches
		// whose settings may differ — when the resolved size changes,
		// drain the in-flight executors (a batch boundary, so the drain
		// is natural) and recreate the semaphore.
		if want := poolSize(par, hint, opts); pool == nil || want != poolCap {
			wg.Wait()
			pool = make(chan struct{}, want)
			poolCap = want
			st.pool.Store(int64(want))
			gwPool.Set(float64(want))
		}
		rb.begin()
		wg.Add(1)
		// The semaphore is claimed inside the goroutine, not on the read
		// loop: a saturated pool must not block the loop, or liveness
		// pings would queue behind executions and the coordinator would
		// eject a merely busy worker as hung. The coordinator's window
		// bounds how many of these goroutines can queue; the pool still
		// bounds how many run. Each goroutine captures the semaphore it
		// was enqueued under — a later resize happens only after
		// wg.Wait has drained every holder of the old one.
		go func(seq uint64, pool chan struct{}, execute func() (byte, *wire.Buf)) {
			defer wg.Done()
			pool <- struct{}{}
			defer func() { <-pool }()
			t, b := safeExecute(execute)
			rb.finish(seq, t, b)
		}(seq, pool, execute)
	}
}

// MaybeServeStdio turns the current process into a stdio worker —
// Serve on stdin/stdout, the transport of coordinator-spawned
// subprocesses — and exits when the WorkerEnv marker is set, and
// returns immediately otherwise. Binaries that want to be their own worker fleet (every
// cmd/ main of this repo, test binaries) call it first thing in main —
// the coordinator's default WorkerCmd re-executes the current binary
// with the marker set, so a single binary serves both roles.
func MaybeServeStdio() {
	if os.Getenv(WorkerEnv) == "" {
		return
	}
	if err := Serve(os.Stdin, os.Stdout, ServeOptions{Name: "stdio"}); err != nil {
		fmt.Fprintln(os.Stderr, "rvworker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// Server is a TCP worker with graceful shutdown: Serve accepts
// connections and serves each as an independent worker stream (each
// with its own in-worker pool; host-level parallelism also comes from
// multiple connections or multiple worker processes), and Shutdown
// drains — stop
// accepting, unblock every connection's read loop, let the in-flight
// executors finish and their replies flush, then wait for the
// handlers. It is the SIGTERM/SIGINT path of cmd/rvworker: a drained
// worker never dies mid-frame, so its coordinator sees a clean EOF
// between frames instead of a torn one.
type Server struct {
	opts    ServeOptions
	mu      sync.Mutex
	l       net.Listener
	conns   map[net.Conn]struct{}
	closing bool
	wg      sync.WaitGroup
}

// NewServer builds an idle server; Serve runs it.
func NewServer(opts ServeOptions) *Server {
	return &Server{opts: opts, conns: make(map[net.Conn]struct{})}
}

// Serve accepts worker connections on the listener until it fails or
// Shutdown is called; a Shutdown-initiated stop returns nil after the
// drain completes. Per-connection protocol errors are reported to
// stderr and end only their connection.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.l = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			s.wg.Wait() // a failed accept loop still drains live streams
			if closing {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closing {
			// Shutdown won the race after this Accept returned: the
			// drain must not adopt a stream it will never unblock.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			co := s.opts
			co.Name = conn.RemoteAddr().String()
			err := Serve(conn, conn, co)
			s.mu.Lock()
			delete(s.conns, conn)
			closing := s.closing
			s.mu.Unlock()
			// A drain unblocks pending reads with an expired deadline;
			// that induced error is the mechanism, not a fault.
			if err != nil && !closing {
				slog.Warn("rvworker: connection failed", "peer", co.Name, "err", err)
			}
		}()
	}
}

// Shutdown drains the server: the listener closes (no new streams),
// every live connection's pending read is unblocked via an expired
// read deadline — Serve's finish path then waits for its in-flight
// executors and flushes the reply batcher (the write half keeps no
// deadline, so final replies always land) — and Shutdown returns when
// every handler has exited. The return value is the number of replies
// (results and errors) this process flushed while the drain settled:
// jobs that were in flight when the signal landed and still made it
// back to their coordinator. Safe to call at any time, including
// before Serve and more than once.
func (s *Server) Shutdown() int {
	before := RepliesFlushed()
	s.mu.Lock()
	s.closing = true
	l := s.l
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}
	s.wg.Wait()
	return int(RepliesFlushed() - before)
}

// RepliesFlushed reports the process-lifetime count of worker replies
// queued to coordinators (results plus error replies). Drain paths
// sample it before and after settling to report how many in-flight
// jobs actually made it out — the flight-recorder counters are the
// single source of truth, so the drain log can never disagree with
// /metrics.
func RepliesFlushed() uint64 { return wReplies.Value() + wErrors.Value() }
