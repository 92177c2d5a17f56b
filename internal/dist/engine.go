package dist

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// The dispatch engine: the payload-agnostic core of the coordinator.
// It ships encoded request frames to a fleet of worker connections and
// routes each reply to its task's deliver continuation, preserving the
// batch discipline (every task settles exactly once; which connection
// answers, and in what order, is invisible to the caller). Both remote
// workloads — simulation jobs (FrameJob/FrameResult) and Monte-Carlo
// sweep chunks (FrameSweepJob/FrameSweepResult) — run through this one
// engine, and since PR 5 the engine runs over a persistent Fleet
// session (fleet.go): connections survive from one dispatch to the
// next, so a session pays one dial and one handshake per host no
// matter how many batches it runs. Since PR 10 dispatches are
// concurrent: each is a tenant in the shared scheduler (sched.go),
// with its own ready queue and sequence space, and idle connections
// claim across tenants under a fairness policy (fairness.go).
//
// Throughput comes from three mechanisms layered on the scheduler:
//
//   - Pipelined adaptive windows. Each connection keeps up to its
//     window of requests in flight (the sender claims and writes, the
//     connection's persistent reader feeds a matcher goroutine that
//     settles replies by sequence number). The window is adaptive by
//     default: it grows toward the connection's bandwidth-delay
//     product (observed reply RTT ÷ observed service gap) and shrinks
//     back when the link is fast, bounded by Config.MaxWindow. Replies
//     may arrive out of order — workers run in-process pools — which
//     the in-flight map makes irrelevant, and may arrive many to a
//     frame (wire.FrameReplyBatch) — workers coalesce small results
//     into one flush per drain.
//   - In-worker pools. The worker side (Serve) executes the jobs of
//     one connection concurrently, so a deep window saturates a whole
//     host through a single connection; heterogeneous hosts get
//     per-stream pool hints (Host.Pool, the host:port*pool syntax).
//   - Slot supervision. A connection belongs to a slot that knows how
//     to re-establish it (re-dial the TCP endpoint, respawn the stdio
//     subprocess). When a worker dies mid-run its in-flight tasks are
//     requeued for the survivors and the slot reconnects with
//     exponential backoff; the reconnection budget spans the whole
//     session, so a slot that keeps dying retires for good.
//
// Determinism: a task is claimed, executed remotely as a pure function
// of its encoded payload, and settled exactly once — requeue on death
// re-executes the same pure computation. The engine never aggregates;
// callers deliver results by index and fold serially, exactly as
// internal/batch prescribes. Window sizes, pool sizes, frame
// coalescing, and connection reuse are all pure scheduling: they move
// wall-clock time, never a byte of output.

// Fleet-shape defaults, overridable per Config.
const (
	// DefaultWindow is the per-connection in-flight window a connection
	// starts at when Config.Window (or Settings.Window) is zero, and
	// the fixed window when adaptation is disabled. Four hides a few
	// round trips of latency and keeps a small in-worker pool fed
	// without stockpiling half the batch on one worker.
	DefaultWindow = 4
	// DefaultMaxWindow bounds adaptive window growth when
	// Config.MaxWindow is zero. Thirty-two covers a ~30-job
	// bandwidth-delay product — a WAN round trip over a well-fed
	// in-worker pool — without letting one slow host hoard the batch.
	DefaultMaxWindow = 32
	// DefaultMaxRespawns bounds how many times one slot reconnects
	// after mid-run deaths before retiring. The budget never resets —
	// it spans every dispatch of a fleet session — so a worker that
	// keeps dying retires after this many attempts and a run with
	// stranded jobs always terminates (with the error the caller's
	// fallback path expects).
	DefaultMaxRespawns = 3
	// DefaultRedialWait is the backoff before the first reconnection
	// attempt; it doubles per consecutive attempt on the same slot.
	DefaultRedialWait = 250 * time.Millisecond
	// DefaultStallTimeout is the liveness deadline floor: a connection
	// with jobs in flight that produces no frame for
	// max(StallTimeout, stallRTTFactor·rttEWMA) is declared hung.
	// Thirty seconds is far above any healthy link's silence — the
	// coordinator pings at half the deadline and even a fully loaded
	// worker echoes from its read loop — while still unwedging a
	// blackholed WAN connection the same minute it hangs.
	DefaultStallTimeout = 30 * time.Second
	// DefaultMaxJobRequeues is the poison-job quarantine threshold: a
	// job requeued by the failures of this many distinct slots is
	// surfaced as a deterministic per-job error. Two means one slot
	// death is always forgiven (workers do die for reasons unrelated
	// to the job), but a job observed killing a second, different
	// worker stops spreading.
	DefaultMaxJobRequeues = 2
	// DefaultBreakerThreshold is the consecutive-connection-failure
	// count that opens a slot's circuit breaker.
	DefaultBreakerThreshold = 3
	// DefaultBreakerCooldown is the initial sit-out of an opened
	// breaker; it doubles each time the half-open probe fails.
	DefaultBreakerCooldown = 2 * time.Second
)

// stallRTTFactor scales the connection's observed RTT EWMA into the
// adaptive half of the liveness deadline, so a deliberately slow WAN
// config with a tight StallTimeout still never ejects a link that is
// merely far away.
const stallRTTFactor = 8

func (c Config) maxRespawns() int {
	switch {
	case c.MaxRespawns > 0:
		return c.MaxRespawns
	case c.MaxRespawns < 0:
		return 0 // respawn disabled
	default:
		return DefaultMaxRespawns
	}
}

func (c Config) redialWait() time.Duration {
	if c.RedialWait > 0 {
		return c.RedialWait
	}
	return DefaultRedialWait
}

// stallTimeout resolves the liveness deadline floor; 0 means stall
// detection is disabled.
func (c Config) stallTimeout() time.Duration {
	switch {
	case c.StallTimeout > 0:
		return c.StallTimeout
	case c.StallTimeout < 0:
		return 0
	default:
		return DefaultStallTimeout
	}
}

// maxJobRequeues resolves the quarantine threshold; 0 means quarantine
// is disabled.
func (c Config) maxJobRequeues() int {
	switch {
	case c.MaxJobRequeues > 0:
		return c.MaxJobRequeues
	case c.MaxJobRequeues < 0:
		return 0
	default:
		return DefaultMaxJobRequeues
	}
}

// breakerThreshold resolves the circuit-breaker trip count; 0 means the
// breaker is disabled.
func (c Config) breakerThreshold() int {
	switch {
	case c.BreakerThreshold > 0:
		return c.BreakerThreshold
	case c.BreakerThreshold < 0:
		return 0
	default:
		return DefaultBreakerThreshold
	}
}

func (c Config) breakerCooldown() time.Duration {
	if c.BreakerCooldown > 0 {
		return c.BreakerCooldown
	}
	return DefaultBreakerCooldown
}

func (c Config) helloTimeout() time.Duration {
	if c.HelloTimeout > 0 {
		return c.HelloTimeout
	}
	return DefaultHelloTimeout
}

// adaptiveWindow sizes one connection's in-flight window. A fixed
// window (Config.Window > 0, or adaptation disabled) never moves; an
// adaptive one steps the window one unit per observation toward
// target = round(minRTT/gap) + 1 — the number of requests that must
// be in flight for the pipe to never idle, plus one of slack. minRTT
// is the minimum reply round-trip observed on the connection, and gap
// an EWMA of the inter-reply arrival spacing (the service rate).
//
// The minimum matters: a raw or averaged RTT sample includes the time
// a request queued behind the window's predecessors at the worker,
// which grows with the window itself — a controller fed that signal
// chases its own tail and ratchets to the cap on every service-bound
// link. The minimum over samples approximates the uncontended round
// trip (network latency + one service time), which is the quantity
// the bandwidth-delay product actually wants.
//
// Window size is pure scheduling, so the controller needs no
// precision, only direction: too small and the worker starves behind
// the latency, too large and one connection hoards work a survivor
// could have claimed on its death.
type adaptiveWindow struct {
	fixed     bool
	cur, max  int
	minRTT    float64 // smallest observed reply round trip, seconds
	gap       float64 // EWMA inter-reply arrival gap, seconds
	rtt       float64 // EWMA reply round trip, seconds — feeds the stall deadline, not the window
	lastReply time.Time
}

// newAdaptiveWindow builds the window state a fresh connection starts
// with (reconnections start over: a re-dialed link may have new
// characteristics).
func newAdaptiveWindow(cfg Config) adaptiveWindow {
	if cfg.Window > 0 {
		return adaptiveWindow{fixed: true, cur: cfg.Window, max: cfg.Window}
	}
	if cfg.MaxWindow < 0 {
		return adaptiveWindow{fixed: true, cur: DefaultWindow, max: DefaultWindow}
	}
	max := cfg.MaxWindow
	if max == 0 {
		max = DefaultMaxWindow
	}
	return adaptiveWindow{cur: min(DefaultWindow, max), max: max}
}

// observe feeds one reply's round-trip time and the service gap it
// represents (the inter-reply arrival spacing, spread evenly over a
// coalesced batch) into the controller and steps the window.
func (w *adaptiveWindow) observe(rtt, gap time.Duration) {
	if w.fixed {
		return
	}
	// Floor both estimates at clock-resolution scale so a loopback
	// burst cannot divide by ~zero.
	const (
		alpha = 0.3
		floor = 20e-6
	)
	r := math.Max(rtt.Seconds(), floor)
	g := math.Max(gap.Seconds(), floor)
	if w.minRTT == 0 || r < w.minRTT {
		w.minRTT = r
	}
	// The liveness deadline wants a typical round trip (minRTT would
	// under-arm it on links whose service time dominates), hence its
	// own EWMA.
	if w.rtt == 0 {
		w.rtt = r
	} else {
		w.rtt += alpha * (r - w.rtt)
	}
	if w.gap == 0 {
		w.gap = g
	} else {
		w.gap += alpha * (g - w.gap)
	}
	// Round, not ceil: the gap EWMA never fully sheds an old sample, so
	// a ratio that converged to 1 still sits at 1±ε — ceiling it would
	// pin the target one unit above the true bandwidth-delay product.
	target := int(math.Round(w.minRTT/w.gap)) + 1
	switch {
	case target > w.cur && w.cur < w.max:
		w.cur++
	case target < w.cur && w.cur > 1:
		w.cur--
	}
}

// settleGap converts one reply frame's arrival into the per-reply
// service gap observe expects, spreading the inter-frame spacing
// evenly over a coalesced batch of n replies. ok is false when there
// is nothing to observe: a fixed window (no bookkeeping at all — the
// caller skips its time.Now() too) or the first frame after an idle
// period (no predecessor to measure spacing against).
//
// A zero gap is NOT a skip case: coalesced same-tick frames (loopback
// links, coarse clocks) are a genuine observation — the link is at
// least as fast as the clock resolves — and observe clamps the sample
// to its internal floor. Skipping them starved the EWMA on exactly the
// links that most needed the window to shrink: the controller never
// adapted because every observation arrived "too fast to count".
func (w *adaptiveWindow) settleGap(now time.Time, n int) (gap time.Duration, ok bool) {
	if w.fixed {
		return 0, false
	}
	ok = !w.lastReply.IsZero()
	if ok {
		gap = now.Sub(w.lastReply) / time.Duration(n)
	}
	w.lastReply = now
	return gap, ok
}

// task is one unit of remote work: an encoded request body and the
// continuation that decodes and delivers its reply. id is the caller's
// index for the task (job index, chunk index) — used in error text.
type task struct {
	id      int
	payload []byte
	// deliver consumes a successful reply body; a non-nil error means
	// the bytes are corrupt, which retires the connection that produced
	// them and requeues the task elsewhere.
	deliver func(body []byte) error
	// deliverStreamed, when non-nil, consumes a streamed result: the
	// closing frame's body plus the trace points the matcher assembled
	// from the preceding FrameTraceChunk frames (wire v6). Tasks that
	// leave it nil (sweep chunks) treat any trace chunk as a protocol
	// violation.
	deliverStreamed func(body []byte, a, b []sim.TracePoint) error
}

// traceAssembly accumulates one in-flight job's streamed trace chunks
// until its closing result frame arrives. Chunks arrive in worker
// write order — all of trace A, then all of trace B, indexes
// sequential within each — and anything else is stream corruption.
type traceAssembly struct {
	a, b         []sim.TracePoint
	nextA, nextB uint32
}

func (as *traceAssembly) add(body []byte) error {
	// Peek the which byte (offset 1, after the version byte) to pick
	// the destination slice, so the decoder appends straight into the
	// assembly instead of through a throwaway intermediate.
	dst := as.a
	if len(body) >= 2 && body[1] == wire.TraceChunkB {
		dst = as.b
	}
	which, index, out, err := wire.DecodeTraceChunk(body, dst)
	if err != nil {
		return err
	}
	switch which {
	case wire.TraceChunkA:
		if as.nextB != 0 {
			return fmt.Errorf("dist: trace chunk for trace A after trace B began")
		}
		if index != as.nextA {
			return fmt.Errorf("dist: trace A chunk %d arrived, expected %d", index, as.nextA)
		}
		as.nextA++
		as.a = out
	default:
		if index != as.nextB {
			return fmt.Errorf("dist: trace B chunk %d arrived, expected %d", index, as.nextB)
		}
		as.nextB++
		as.b = out
	}
	return nil
}

// slot is one position in the worker fleet: a (possibly live)
// connection plus the recipe for re-establishing it after a death.
// Every slot is driven by one persistent runner goroutine (runSlot)
// for the life of the fleet session: the runner drives the live
// connection while it lasts, reconnects with exponential backoff when
// it dies, and parks when there is nothing to do. The reconnection
// budget (attempts) spans the slot's whole life, and a slot whose
// budget is spent retires for good; Retire drains a slot early, by
// the same requeue path a death takes. All scheduling fields are
// guarded by the fleet mutex; stopC/done belong to the runner's
// lifecycle.
type slot struct {
	name     string
	dial     func() (*workerConn, error)
	wc       *workerConn
	attempts int
	retired  bool
	draining bool         // Retire requested: finish in-flight bookkeeping, then retire
	met      *slotMetrics // per-slot flight-recorder children, resolved at assembly

	// Connection-scoped scheduling state, guarded by the fleet mutex.
	// inflightN mirrors len(connState.inflight); perDisp counts this
	// connection's in-flight jobs per dispatch id (the per-dispatch
	// clamp); lastDisp is the dispatch the connection last claimed
	// from, for steal accounting; connErr is the first transport error
	// (matcher or sender) — the signal that retires the connection.
	inflightN int
	perDisp   map[uint32]int
	lastDisp  uint32
	connErr   error

	// Runner lifecycle. backoff is the next redial wait (doubles per
	// consecutive attempt, resets on success); stopC interrupts sleeps
	// and in-flight dials when the fleet closes or the slot is
	// retired.
	backoff  time.Duration
	stopC    chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// Circuit breaker: consecutive connection failures (dead drives,
	// failed redials) open the breaker — the slot sits out until
	// openUntil passes, then runs half-open: the next reconnection
	// dial is the probe, one more failure re-opens the breaker with a
	// doubled cooldown, and a connection that settles real work closes
	// it. Guarded by the fleet mutex.
	fails     int           // consecutive connection failures
	cooldown  time.Duration // current breaker cooldown; doubles per re-open
	openUntil time.Time     // breaker open until then; zero = closed
}

// interrupt aborts the runner's current sleep or dial; idempotent.
func (s *slot) interrupt() {
	s.stopOnce.Do(func() { close(s.stopC) })
}

// cooling reports whether the slot's breaker is open at now.
func (s *slot) cooling(now time.Time) bool {
	return !s.openUntil.IsZero() && now.Before(s.openUntil)
}

// fail records one connection failure and reports whether it opened
// (or re-opened) the slot's circuit breaker, in which case the runner
// sits the cooldown out before probing half-open.
func (s *slot) fail(cfg Config) bool {
	th := cfg.breakerThreshold()
	if th <= 0 {
		return false
	}
	s.fails++
	if s.fails < th {
		return false
	}
	// Past the threshold every further failure re-opens immediately
	// (the classic half-open probe: one failure, not a fresh budget)
	// with a doubled cooldown.
	if s.cooldown == 0 {
		s.cooldown = cfg.breakerCooldown()
	} else {
		s.cooldown *= 2
	}
	s.openUntil = time.Now().Add(s.cooldown)
	s.met.breakerOpens.Inc()
	s.met.breakerOpen.Set(1)
	return true
}

// recover closes the breaker: the slot produced a healthy, productive
// connection, so the failure streak and the cooldown escalation reset.
func (s *slot) recover() {
	s.fails = 0
	s.cooldown = 0
	s.openUntil = time.Time{}
	s.met.breakerOpen.Set(0)
}

// ErrAllBreakersOpen reports a dispatch that could not start because
// every non-retired slot's circuit breaker is in its cooldown. Callers
// with a fallback path (RunOrFallback, StreamOrFallback) degrade to
// in-process execution — byte-identical by the determinism guarantee —
// instead of hammering a fleet that just failed repeatedly.
var ErrAllBreakersOpen = errors.New("dist: every fleet slot's circuit breaker is open")
