// Package dist distributes batch execution across worker processes —
// local subprocesses speaking length-prefixed frames over stdio pipes,
// remote workers reached over TCP — while preserving the batch
// engine's determinism guarantee end to end: any worker-process count,
// any host mix, any interleaving of completions produces a result
// slice byte-identical to an in-process serial run.
//
// The guarantee has three legs, each inherited from a layer below:
//
//  1. sim.Run is a pure function of (instance, algorithm, settings);
//  2. the wire codec (internal/wire) round-trips every input and
//     output bit-exactly, and algorithms cross the boundary by
//     registered name, rebuilt identically on the worker;
//  3. the coordinator keeps internal/batch's discipline — memoization
//     canon/uniq decided serially in input order before dispatch,
//     results stored by input index, aggregates folded serially — so
//     scheduling (which worker, which order, how deep a connection's
//     adaptive window runs, how many replies a worker coalesces into
//     one frame, even a worker dying with a window full of jobs that
//     are requeued to survivors or to its own respawned successor)
//     changes wall-clock time and nothing else.
//
// The fleet is a session (Fleet, fleet.go): dial once, run any number
// of batches and sweeps over the open connections, close once. A nil
// *Fleet is the in-process case, so a caller holds one handle whether
// or not it dialed; a one-shot caller dials, runs, and closes around
// its single call.
//
// Jobs without a wire form (programs wired to observers, closure-built
// per-instance algorithms) cannot cross a process boundary; the
// coordinator runs them on an in-process pool concurrently with the
// remote dispatch, which purity again makes invisible in the output.
package dist

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Handshake timeouts. The hello wait is overridable per Config (chaos
// tests and slow WANs should not have to fight a hard-coded constant).
const (
	// DefaultHelloTimeout bounds how long the coordinator waits for a
	// freshly spawned or dialed worker to identify itself; a peer that
	// is not a worker (wrong port, a main that forgot MaybeServeStdio)
	// would otherwise hang the batch forever.
	DefaultHelloTimeout = 10 * time.Second
	// DefaultDialTimeout bounds each TCP connection attempt to a fleet
	// host.
	DefaultDialTimeout = 5 * time.Second
)

// Host is one TCP worker endpoint of the fleet, with an optional
// per-host execution-pool hint for heterogeneous fleets: a host whose
// Pool is positive is told (wire.FramePool, sent right after its
// hello) to execute its stream's jobs on a pool of that size,
// overriding the one Parallelism value the jobs forward. The -hosts
// syntax is addr or addr*pool (see ParseHosts).
type Host struct {
	Addr string
	Pool int
}

// Config selects the worker fleet of a distributed run and shapes its
// dispatch (window depth, respawn policy).
type Config struct {
	// Hosts are TCP endpoints of already-running workers
	// (cmd/rvworker -listen), each with an optional in-worker pool
	// hint. Each contributes one pipelined worker connection (up to a
	// window of jobs in flight, executed by the worker's in-process
	// pool).
	Hosts []Host
	// Procs is the number of local worker subprocesses to spawn for
	// the session (stdio transport). They are torn down when the
	// session closes.
	Procs int
	// Cmd is the command line used to spawn local workers. Empty
	// selects the current executable re-executed in worker mode (the
	// WorkerEnv marker + MaybeServeStdio handshake).
	Cmd []string
	// Stderr receives the spawned workers' stderr; nil inherits the
	// coordinator's.
	Stderr io.Writer
	// Window fixes the number of jobs kept in flight per worker
	// connection: 1 restores synchronous request/response dispatch.
	// 0 selects adaptive windows — each connection starts at
	// DefaultWindow and grows or shrinks with its observed reply RTT
	// and service rate, bounded by MaxWindow. Deeper windows hide
	// network latency and keep in-worker pools fed; they cannot change
	// a result.
	Window int
	// MaxWindow bounds adaptive window growth (Window == 0). 0 selects
	// DefaultMaxWindow; negative disables adaptation, pinning every
	// connection at DefaultWindow. Ignored when Window is positive.
	MaxWindow int
	// MaxRespawns bounds how many times one fleet slot reconnects
	// (re-dial a TCP host, respawn a stdio subprocess) after mid-run
	// deaths, across the whole session. 0 selects DefaultMaxRespawns;
	// negative disables respawning (a dead worker retires its slot, as
	// before PR 4).
	MaxRespawns int
	// RedialWait is the backoff before a slot's first reconnection
	// attempt, doubling per consecutive attempt. 0 selects
	// DefaultRedialWait.
	RedialWait time.Duration
	// StallTimeout is the liveness deadline for a connection with jobs
	// in flight: no frame — result, reply batch, or heartbeat echo —
	// within max(StallTimeout, a multiple of the connection's observed
	// RTT) declares the slot hung; the connection is closed and its
	// in-flight window requeued through the ordinary death path. The
	// coordinator pings a connection that has been silent for half the
	// deadline, so an idle-but-alive worker grinding a slow job is
	// never falsely ejected. 0 selects DefaultStallTimeout; negative
	// disables stall detection (and the pings).
	StallTimeout time.Duration
	// MaxJobRequeues quarantines poison jobs: a job whose requeues have
	// been caused by the deaths or stalls of this many distinct fleet
	// slots is surfaced as a deterministic per-job error instead of
	// being requeued again — one poison job that crashes every worker
	// it lands on must not exhaust the whole session's respawn budget.
	// 0 selects DefaultMaxJobRequeues; negative disables quarantine.
	MaxJobRequeues int
	// HelloTimeout bounds the wait for a worker's hello frame after
	// dial/spawn. 0 selects DefaultHelloTimeout.
	HelloTimeout time.Duration
	// BreakerThreshold is the number of consecutive connection failures
	// (dead drives, failed redials) that open a slot's circuit breaker:
	// the slot sits out until a cooldown elapses, then a single probe
	// dial decides whether it closes again. 0 selects
	// DefaultBreakerThreshold; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the initial cooldown of a freshly opened
	// breaker; it doubles each time the probe fails and the breaker
	// re-opens, and resets when the slot completes a healthy
	// connection. 0 selects DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// Compress negotiates flate frame compression (wire v6) with every
	// worker whose hello advertises wire.CapCompress: frames with
	// payloads of at least DefaultCompressMin bytes are deflated on
	// both directions of the stream. Transport only — payloads decode
	// bit-exactly — so it trades coordinator/worker CPU for wire bytes:
	// a win on bandwidth-starved WAN links, a wash on localhost. A
	// worker that does not advertise the capability simply gets an
	// uncompressed stream; unlike a version mismatch this is not an
	// error.
	Compress bool
	// Fairness picks which live dispatch an idle connection claims
	// from when several run concurrently over this fleet (multi-tenant
	// scheduling, PR 10). nil selects FIFO — oldest dispatch first —
	// via a zero-allocation fast path. Any policy is pure scheduling:
	// per-tenant output bytes are identical under all of them.
	Fairness Fairness
}

// DefaultCompressMin is the smallest frame payload worth deflating
// when Config.Compress negotiates compression: below it the flate
// header overhead and the per-frame CPU cost outweigh any plausible
// saving (a bare job frame is ~200 bytes and ships once per job; the
// frames that dominate WAN transfer — coalesced reply batches and
// trace chunks — run tens of kilobytes).
const DefaultCompressMin = 256

// Enabled reports whether the config names any workers at all.
func (c Config) Enabled() bool { return len(c.Hosts) > 0 || c.Procs > 0 }

// ParseHosts splits a comma-separated endpoint list into Config.Hosts
// form, trimming whitespace and dropping empty entries — the one
// parser behind every -hosts flag and Settings.Hosts. Each entry is
// addr or addr*pool, the pool hint naming the in-worker execution
// pool that host should run (heterogeneous fleets: a 32-core host
// takes host:9101*32 next to a 4-core host:9101*4). A malformed pool
// hint — not a positive integer, more than one '*', an empty address
// — is an error, not a silently ignored worker.
func ParseHosts(s string) ([]Host, error) {
	var hosts []Host
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		h := Host{Addr: entry}
		if i := strings.IndexByte(entry, '*'); i >= 0 {
			pool, err := strconv.Atoi(strings.TrimSpace(entry[i+1:]))
			if err != nil || pool < 1 {
				return nil, fmt.Errorf("dist: host %q: pool hint %q is not a positive integer", entry, entry[i+1:])
			}
			// Enforce the wire codec's bound here, where the user sees it:
			// an oversized hint the worker's DecodePoolHint would reject
			// must fail the parse, not kill every stream at the handshake.
			if pool > 1<<20 {
				return nil, fmt.Errorf("dist: host %q: pool hint %d exceeds the limit (%d)", entry, pool, 1<<20)
			}
			h = Host{Addr: strings.TrimSpace(entry[:i]), Pool: pool}
		}
		if h.Addr == "" || strings.ContainsRune(h.Addr, '*') {
			return nil, fmt.Errorf("dist: malformed host entry %q (want addr or addr*pool)", entry)
		}
		hosts = append(hosts, h)
	}
	return hosts, nil
}

// FormatHosts renders a Host list back into the -hosts flag syntax
// ParseHosts reads ("addr,addr*pool,…") — the round-trip CLIs use to
// seed string-typed settings from a parsed hosts file.
func FormatHosts(hosts []Host) string {
	var b strings.Builder
	for i, h := range hosts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(h.Addr)
		if h.Pool > 0 {
			fmt.Fprintf(&b, "*%d", h.Pool)
		}
	}
	return b.String()
}

// stderrMu serializes every write the distribution subsystem makes to
// a run's stderr: per-slot supervisors report deaths and reconnects
// concurrently, and spawned workers' stderr is copied by os/exec
// goroutines — the caller-supplied Config.Stderr (often a plain
// strings.Builder in tests) is not required to cope with that on its
// own.
var stderrMu sync.Mutex

type lockedWriter struct{ w io.Writer }

func (lw lockedWriter) Write(p []byte) (int, error) {
	stderrMu.Lock()
	defer stderrMu.Unlock()
	return lw.w.Write(p)
}

func stderrOf(cfg Config) io.Writer {
	if cfg.Stderr != nil {
		return lockedWriter{w: cfg.Stderr}
	}
	return lockedWriter{w: os.Stderr}
}

// logOf returns the structured logger a run's warnings go to: the
// process default when the config has no stderr override, otherwise a
// text handler over the (locked) override so tests capture events the
// same way they captured the old print lines. All handlers share
// obs.LogLevel, so the -log-level flag gates them uniformly. These
// are cold failure/recovery paths; building a handler per run costs
// nothing that matters.
func logOf(cfg Config) *slog.Logger {
	if cfg.Stderr == nil {
		return slog.Default()
	}
	return slog.New(slog.NewTextHandler(lockedWriter{w: cfg.Stderr}, &slog.HandlerOptions{Level: obs.LogLevel}))
}

// hostSummary renders the fleet recipe for log context: the dial
// targets plus the local subprocess count, so a fallback event says
// which fleet degraded without a second lookup.
func hostSummary(cfg Config) string {
	parts := make([]string, 0, len(cfg.Hosts)+1)
	for _, h := range cfg.Hosts {
		parts = append(parts, h.Addr)
	}
	if cfg.Procs > 0 {
		parts = append(parts, fmt.Sprintf("%d local subprocess(es)", cfg.Procs))
	}
	return strings.Join(parts, ",")
}

// jobError marks a deterministic per-job failure reported by a worker
// (FrameError): retrying elsewhere would fail the same way.
type jobError struct{ msg string }

func (e *jobError) Error() string { return e.msg }

// rawFrame is one frame as the persistent reader pulled it off the
// connection, type still uninterpreted. The payload lives in a pooled
// buffer: whoever consumes the frame must call release once the
// payload — and anything aliasing it, such as DecodeReplies entries —
// is dead.
type rawFrame struct {
	typ byte
	buf *wire.Buf
}

func (f rawFrame) payload() []byte { return f.buf.B }
func (f rawFrame) release()        { f.buf.Release() }

// workerConn is one worker connection (spawned subprocess or TCP). The
// write half is owned by whichever dispatch is driving the connection;
// the read half is owned by a persistent reader goroutine that
// outlives individual dispatches — it feeds frames, and the session
// keeps the connection (reader included) warm between batches.
type workerConn struct {
	name      string
	br        *bufio.Reader
	bw        *bufio.Writer
	fr        *wire.FrameReader // stateful framing over br (pooled buffers, inflation)
	fw        *wire.FrameWriter // stateful framing over bw (reused assembly, deflation)
	wmu       sync.Mutex        // serializes writes: the dispatch sender vs. the matcher's liveness pings
	closeOnce sync.Once
	closeFn   func()

	// frames delivers every frame the persistent reader pulls off the
	// connection; it is closed when the transport dies, with the error
	// left in readErr (the channel close is the publication barrier).
	frames  chan rawFrame
	readErr error

	// win is the connection's (possibly adaptive) send window, guarded
	// by the fleet's scheduler mutex (Fleet.mu) while the connection
	// is live; fixed is immutable after construction.
	win adaptiveWindow

	// stats caches the newest WorkerStats payload a pong carried
	// (wire v5): written by the matcher of the dispatch driving the
	// connection or by Fleet.Snapshot's parked-connection probe, read
	// by Snapshot. Atomic because Snapshot may race a live matcher.
	stats atomic.Pointer[wire.WorkerStats]
}

func (wc *workerConn) close() {
	wc.closeOnce.Do(func() {
		if wc.frames != nil {
			// The persistent reader may be blocked delivering frames no
			// consumer will take (a matcher that died mid-protocol, or
			// none attached): drain until its transport error closes the
			// channel, so the reader goroutine is always reaped. Racing
			// a still-attached matcher for a final frame is harmless —
			// a frame the drain swallows simply leaves its task in
			// flight, and a failing connection requeues those.
			go func() {
				for f := range wc.frames {
					f.release()
				}
			}()
		}
		wc.closeFn()
	})
}

// startReader launches the connection's persistent frame reader. It
// runs until the transport dies — naturally, or because close()
// unblocked its pending read.
func (wc *workerConn) startReader() {
	wc.frames = make(chan rawFrame, 4)
	go func() {
		defer close(wc.frames)
		for {
			typ, buf, err := wc.fr.ReadFrame()
			if err != nil {
				wc.readErr = err
				return
			}
			wc.frames <- rawFrame{typ: typ, buf: buf}
		}
	}()
}

// send writes one seq-prefixed request frame and flushes it onto the
// wire, so a job is visible to the worker the moment send returns.
func (wc *workerConn) send(seq uint64, typ byte, payload []byte) error {
	wc.wmu.Lock()
	defer wc.wmu.Unlock()
	if err := wc.fw.WriteFrameSeq(typ, seq, payload); err != nil {
		return err
	}
	return wc.bw.Flush()
}

// ping writes one liveness probe. It is called by the matcher's stall
// timer while the dispatch sender owns the write half, so the write
// mutex is what keeps the two frame writes from interleaving.
func (wc *workerConn) ping(nonce uint64) error {
	wc.wmu.Lock()
	defer wc.wmu.Unlock()
	if err := wc.fw.WriteFrame(wire.FramePing, wire.EncodePing(nonce)); err != nil {
		return err
	}
	return wc.bw.Flush()
}

// assemble builds the worker fleet as supervisable slots: dial every
// host, spawn every requested subprocess — all concurrently, so one
// dead host costs one dial timeout, not a serial sum of them. Each
// slot carries its reconnection recipe, which is what lets the engine
// re-dial a lost host or respawn a dead subprocess mid-run. Individual
// failures are collected, not fatal — the session proceeds on whatever
// subset came up (and only fails outright when that subset is empty).
func assemble(cfg Config) ([]*slot, []error) {
	n := len(cfg.Hosts) + cfg.Procs
	slots := make([]*slot, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for k, h := range cfg.Hosts {
		go func(k int, h Host) {
			defer wg.Done()
			name := "tcp:" + h.Addr
			s := &slot{name: name, met: newSlotMetrics(name), dial: func() (*workerConn, error) { return dialWorker(h, cfg) }}
			if s.wc, errs[k] = s.dial(); errs[k] == nil {
				s.wc.win = newAdaptiveWindow(cfg)
				slots[k] = s
			}
		}(k, h)
	}
	for k := 0; k < cfg.Procs; k++ {
		go func(k int) {
			defer wg.Done()
			name := fmt.Sprintf("proc:%d", k)
			s := &slot{
				name: name,
				met:  newSlotMetrics(name),
				dial: func() (*workerConn, error) { return spawnWorker(cfg, k) },
			}
			if s.wc, errs[len(cfg.Hosts)+k] = s.dial(); errs[len(cfg.Hosts)+k] == nil {
				s.wc.win = newAdaptiveWindow(cfg)
				slots[len(cfg.Hosts)+k] = s
			}
		}(k)
	}
	wg.Wait()
	up := slots[:0]
	var failed []error
	for k := 0; k < n; k++ {
		if errs[k] != nil {
			failed = append(failed, errs[k])
			continue
		}
		up = append(up, slots[k])
	}
	return up, failed
}

// awaitHello reads and validates the worker's hello frame, bounded by
// timeout, returning the capability bitmask the worker advertised;
// cancel must unblock the pending read (kill the process, close the
// connection) so the reader goroutine is always reaped.
func awaitHello(name string, br *bufio.Reader, cancel func(), timeout time.Duration) (uint32, error) {
	type frame struct {
		typ     byte
		payload []byte
		err     error
	}
	ch := make(chan frame, 1)
	go func() {
		typ, payload, err := wire.ReadFrame(br)
		ch <- frame{typ, payload, err}
	}()
	select {
	case f := <-ch:
		if f.err != nil {
			return 0, fmt.Errorf("dist: %s: reading hello: %w", name, f.err)
		}
		if f.typ != wire.FrameHello {
			return 0, fmt.Errorf("dist: %s: first frame is type %d, not hello", name, f.typ)
		}
		caps, err := wire.CheckHello(f.payload)
		if err != nil {
			return 0, fmt.Errorf("dist: %s: %w", name, err)
		}
		return caps, nil
	case <-time.After(timeout):
		cancel()
		<-ch
		return 0, fmt.Errorf("dist: %s: no hello within %v (is the peer a worker?)", name, timeout)
	}
}

// sendPoolHint forwards a host's per-stream pool hint right after the
// hello, before any job, so the worker sizes its execution pool from
// it (see Serve).
func sendPoolHint(wc *workerConn, pool int) error {
	if pool <= 0 {
		return nil
	}
	if err := wc.fw.WriteFrame(wire.FramePool, wire.EncodePoolHint(pool)); err != nil {
		return err
	}
	return wc.bw.Flush()
}

// negotiateCompress turns compression on for the stream when the
// config asks for it and the worker's hello advertised the capability.
// The FrameCompress hint goes out uncompressed (the writer is enabled
// only after it is flushed), before any job; the worker compresses
// nothing before processing it, so enabling our reader here cannot
// race. A worker without the capability just gets a raw stream.
func negotiateCompress(wc *workerConn, cfg Config, caps uint32) error {
	if !cfg.Compress || caps&wire.CapCompress == 0 {
		return nil
	}
	if err := wc.fw.WriteFrame(wire.FrameCompress, wire.EncodeCompressHint(DefaultCompressMin)); err != nil {
		return err
	}
	if err := wc.bw.Flush(); err != nil {
		return err
	}
	wc.fw.EnableCompression(DefaultCompressMin)
	wc.fr.EnableCompression()
	return nil
}

// dialWorker connects to a TCP worker endpoint. Keepalives are enabled
// so a silent network partition mid-job surfaces as a transport error
// (and hence a requeue) instead of wedging the batch on a read that
// never returns.
func dialWorker(h Host, cfg Config) (*workerConn, error) {
	conn, err := net.DialTimeout("tcp", h.Addr, DefaultDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dist: dialing %s: %w", h.Addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
	wc := &workerConn{
		name:    "tcp:" + h.Addr,
		br:      bufio.NewReader(conn),
		bw:      bufio.NewWriter(conn),
		closeFn: func() { conn.Close() },
	}
	wc.fr = wire.NewFrameReader(wc.br)
	wc.fw = wire.NewFrameWriter(wc.bw)
	caps, err := awaitHello(wc.name, wc.br, func() { conn.Close() }, cfg.helloTimeout())
	if err != nil {
		wc.close()
		return nil, err
	}
	if err := sendPoolHint(wc, h.Pool); err != nil {
		wc.close()
		return nil, fmt.Errorf("dist: %s: sending pool hint: %w", wc.name, err)
	}
	if err := negotiateCompress(wc, cfg, caps); err != nil {
		wc.close()
		return nil, fmt.Errorf("dist: %s: negotiating compression: %w", wc.name, err)
	}
	wc.startReader()
	return wc, nil
}

// spawnWorker starts one local subprocess worker on stdio pipes. With
// no explicit command it re-executes the current binary in worker mode.
func spawnWorker(cfg Config, ordinal int) (*workerConn, error) {
	cmdline := cfg.Cmd
	stderr := stderrOf(cfg)
	if len(cmdline) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("dist: resolving own executable for worker spawn: %w", err)
		}
		cmdline = []string{exe}
	}
	cmd := exec.Command(cmdline[0], cmdline[1:]...)
	cmd.Env = append(os.Environ(), WorkerEnv+"=1")
	cmd.Stderr = stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: spawning worker %q: %w", cmdline[0], err)
	}
	name := fmt.Sprintf("proc:%d(pid %d)", ordinal, cmd.Process.Pid)
	kill := func() { cmd.Process.Kill() }
	wc := &workerConn{
		name: name,
		br:   bufio.NewReader(stdout),
		bw:   bufio.NewWriter(stdin),
		closeFn: func() {
			// Closing stdin is the shutdown signal (worker exits on EOF);
			// escalate to kill if it lingers, and always reap the process.
			stdin.Close()
			done := make(chan struct{})
			go func() { cmd.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				kill()
				<-done
			}
		},
	}
	wc.fr = wire.NewFrameReader(wc.br)
	wc.fw = wire.NewFrameWriter(wc.bw)
	caps, err := awaitHello(name, wc.br, kill, cfg.helloTimeout())
	if err != nil {
		wc.close()
		return nil, err
	}
	if err := negotiateCompress(wc, cfg, caps); err != nil {
		wc.close()
		return nil, fmt.Errorf("dist: %s: negotiating compression: %w", name, err)
	}
	wc.startReader()
	return wc, nil
}
