// Package sim is the exact continuous-time simulator for two mobile
// agents executing move/wait programs in the plane.
//
// The simulator is event-driven: each agent's lazy program is converted
// into a stream of absolute-time segments (constant-velocity intervals),
// the two streams are merged by time, and on every overlap interval the
// first time the inter-agent gap reaches the sight radius is computed
// analytically (a quadratic root — see geom.FirstWithin). A wait of
// 2^60 time units therefore costs exactly one event, which is what makes
// the paper's astronomically scheduled algorithms simulable at all.
//
// Instructions are pulled through the prog cursor engine: cursor-backed
// programs (every prog combinator) are drained by direct calls, and only
// opaque hand-written push closures fall back to an iter.Pull coroutine.
// Consecutive wait instructions are fused into a single segment (wait
// coalescing), so a run of padding and scheduling waits costs one event
// and one Segments unit instead of many; Settings.NoWaitCoalesce
// restores the one-segment-per-instruction accounting.
//
// Absolute time is accumulated in double-double precision (internal/dd),
// so sight events remain resolvable long after a float64 clock would have
// lost sub-unit resolution.
//
// The segment loop recomputes nothing that is fixed per agent or per
// interval. An agent's frame is built once, on its first move, and move
// velocities come from a small per-agent cache keyed on the bits of the
// local angle θ, so repeated directions cost no trigonometry and give
// the very bits phys.Attributes.AbsVelocity would. Each interval's length
// is computed once and advances both agents, and the Hypot of the
// closest-approach gap is taken only when the squared gap could set a
// new minimum (geom.Vec2.NormExceeds). None of this changes a bit of any
// Result; DESIGN.md §14 gives the argument.
//
// Rendezvous semantics follow the paper: agents stop forever as soon as
// they see each other (gap ≤ r). The Section 5 extension with distinct
// radii r₁ ≥ r₂ is supported: the far-sighted agent freezes first, the
// other keeps executing until the gap reaches its own radius.
package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dd"
	"repro/internal/geom"
	"repro/internal/phys"
	"repro/internal/prog"
)

// AgentSpec describes one agent: its physical attributes, the program it
// executes, and its sight radius.
type AgentSpec struct {
	Attrs  phys.Attributes
	Prog   prog.Program
	Radius float64
}

// Settings bound a simulation run.
type Settings struct {
	// MaxTime aborts the run when the absolute clock passes it.
	MaxTime float64
	// MaxSegments aborts the run after this many program segments have
	// been consumed across both agents.
	MaxSegments int
	// SightSlack is the relative tolerance added to each radius when
	// detecting sight: the effective radius is r·(1+SightSlack)+1e-12.
	// Boundary instances of the paper attain gap == r exactly in real
	// arithmetic; the slack absorbs float64 rounding. Default 1e-9.
	SightSlack float64
	// TraceCap, when positive, records up to this many trajectory points
	// per agent (decimated by stride doubling when exceeded).
	TraceCap int
	// Parallelism is the worker count used by batch execution
	// (rendezvous.SimulateBatch and internal/batch); a single Run ignores
	// it. 0 or negative selects GOMAXPROCS. The batch engine guarantees
	// results are identical for every value — scheduling changes only
	// wall-clock time, never an outcome.
	Parallelism int
	// NoBatchMemoize disables batch-level memoization in
	// rendezvous.SimulateBatch (duplicate instances sharing one pure
	// result). Set it when the Algorithm's Program factory wires up
	// per-job observable side effects (e.g. a progress observer per
	// job) that must fire for every duplicate. A single Run ignores it.
	NoBatchMemoize bool
	// NoWaitCoalesce disables the fusing of consecutive wait
	// instructions into a single segment. Coalescing never changes the
	// trajectories — a fused wait occupies exactly the local time of its
	// parts — but it does change Segments accounting (a fused run counts
	// once) and can merge event intervals, which may move float64
	// rounding by ulps on runs whose other agent is moving through the
	// fused span. Set it for instruction-exact differential comparisons.
	NoWaitCoalesce bool
	// Hosts, when non-empty, distributes batch execution over the
	// worker processes listening at these comma-separated TCP
	// endpoints (see internal/dist and cmd/rvworker). Like Parallelism
	// it is a batch-level knob that a single Run ignores, and like
	// every scheduling knob it cannot change a result — a distributed
	// batch is byte-identical to an in-process serial one.
	Hosts string
	// WorkerProcs, when positive, spawns this many local worker
	// subprocesses for batch execution (frames over stdio pipes).
	// Combines with Hosts; a single Run ignores it.
	WorkerProcs int
	// WorkerCmd overrides the command line used to spawn local worker
	// subprocesses (whitespace-split). Empty selects the current
	// executable re-executed in worker mode — single-binary deploys for
	// any main that calls dist.MaybeServeStdio early. A single Run
	// ignores it.
	WorkerCmd string
	// Window is the number of jobs a distributed coordinator keeps in
	// flight per worker connection (pipelined dispatch — see
	// internal/dist): deeper windows hide network latency and keep a
	// worker's in-process pool fed. A positive value fixes the window
	// there; 1 restores strictly synchronous request/response dispatch.
	// 0 selects adaptive windows: each connection starts at the default
	// (currently 4) and grows or shrinks with its observed reply RTT
	// and service rate, bounded by MaxWindow. Like every scheduling
	// knob it cannot change a result, and both a single Run and an
	// in-process batch ignore it.
	Window int
	// MaxWindow bounds how far an adaptive window (Window == 0) may
	// grow per connection. 0 selects the default (currently 32);
	// negative disables adaptation, pinning every connection at the
	// default window. Ignored when Window is positive. Pure scheduling:
	// no value can change a result.
	MaxWindow int
	// StallTimeout is the distributed coordinator's liveness deadline:
	// a worker connection with jobs in flight that produces no frame —
	// not even a heartbeat echo — for max(StallTimeout, a multiple of
	// the observed RTT) is declared hung, its window requeued to the
	// survivors. 0 selects the default (currently 30s); negative
	// disables stall detection. Failure handling is pure scheduling: a
	// requeued job recomputes the identical pure result elsewhere, so
	// no value can change a byte of output. A single Run and an
	// in-process batch ignore it.
	StallTimeout time.Duration
	// MaxJobRequeues is the distributed coordinator's poison-job
	// quarantine threshold: a job whose dispatch has been requeued by
	// the deaths or stalls of this many distinct fleet slots is
	// quarantined — surfaced as a deterministic per-job error — instead
	// of being retried into every remaining worker's respawn budget.
	// 0 selects the default (currently 2); negative disables the
	// quarantine. A single Run and an in-process batch ignore it.
	MaxJobRequeues int
	// Compress asks the distributed coordinator to negotiate flate
	// frame compression with every worker that advertises the
	// capability (wire v6), shrinking large frames — trace-carrying
	// results above all — on bandwidth-starved links. Transport only:
	// payloads decode bit-exactly, so no value can change a byte of
	// output. A single Run and an in-process batch ignore it.
	Compress bool
}

// DefaultSettings returns permissive bounds suitable for tests:
// MaxTime 1e18, 50M segments, 1e-9 slack, no trace.
func DefaultSettings() Settings {
	return Settings{MaxTime: 1e18, MaxSegments: 50_000_000, SightSlack: 1e-9}
}

// StopReason tells why a run ended.
type StopReason int

const (
	// ReasonMet: rendezvous achieved.
	ReasonMet StopReason = iota
	// ReasonMaxTime: the absolute clock exceeded Settings.MaxTime.
	ReasonMaxTime
	// ReasonMaxSegments: the segment budget was exhausted.
	ReasonMaxSegments
	// ReasonProgramsEnded: both programs terminated (or froze) without
	// rendezvous; the gap can never change again.
	ReasonProgramsEnded
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case ReasonMet:
		return "met"
	case ReasonMaxTime:
		return "max-time"
	case ReasonMaxSegments:
		return "max-segments"
	case ReasonProgramsEnded:
		return "programs-ended"
	}
	return "unknown"
}

// TracePoint is one recorded trajectory sample.
type TracePoint struct {
	T   float64
	Pos geom.Vec2
}

// Result summarizes a run.
type Result struct {
	Met        bool
	Reason     StopReason
	MeetTime   dd.T      // absolute meeting time (valid when Met)
	MinGap     float64   // minimum gap ever observed
	MinGapTime dd.T      // when the minimum occurred
	EndA, EndB geom.Vec2 // final positions
	Segments   int       // total program segments consumed
	EndTime    dd.T      // absolute time when the run stopped
	TraceA     []TracePoint
	TraceB     []TracePoint
}

// CloneTraces returns the result with freshly copied trace slices, so
// the copy can be handed to a caller that may rescale trace points in
// place without corrupting the original (batch memoization shares one
// computed result across duplicate jobs this way).
func (r Result) CloneTraces() Result {
	if r.TraceA != nil {
		r.TraceA = append([]TracePoint(nil), r.TraceA...)
	}
	if r.TraceB != nil {
		r.TraceB = append([]TracePoint(nil), r.TraceB...)
	}
	return r
}

// String renders a one-line summary.
func (r Result) String() string {
	if r.Met {
		return fmt.Sprintf("met at t=%.6g (gap min %.6g, %d segments)",
			r.MeetTime.Float64(), r.MinGap, r.Segments)
	}
	return fmt.Sprintf("no meeting (%v): min gap %.6g at t=%.6g after %d segments",
		r.Reason, r.MinGap, r.MinGapTime.Float64(), r.Segments)
}

// waitFuseLimit caps how many consecutive wait instructions a single
// segment may absorb, bounding the work per loadSegment call on
// pathological all-wait programs when MaxTime is unbounded.
const waitFuseLimit = 4096

// velCacheSize is the number of distinct move angles a runner keeps
// velocities for. The paper's walks move along a handful of directions
// per agent, so four entries hit on nearly every move segment.
const velCacheSize = 4

// runner is the per-agent execution state.
type runner struct {
	attrs  phys.Attributes
	cur    prog.Cursor // instruction source (cursor fast path or iter.Pull adapter)
	radius float64     // effective sight radius

	// Move velocities: frame is attrs.Frame(), built on the first move;
	// velKeys/vels cache frame·Polar(θ)·Speed keyed on the bits of θ,
	// filled round-robin: velN entries in use, velNext written next.
	frame    geom.Mat2
	hasFrame bool
	velKeys  [velCacheSize]uint64
	vels     [velCacheSize]geom.Vec2
	velN     int
	velNext  int

	pos     geom.Vec2 // position at segStart
	vel     geom.Vec2 // velocity during the current segment
	segEnd  dd.T      // absolute end of the current segment
	local   dd.T      // local time consumed so far (for exact end times)
	frozen  bool      // saw the other agent (or program ended): never moves again
	ended   bool      // no further segments will load
	srcDone bool      // the instruction source is exhausted

	pending    prog.Instr // look-ahead instruction buffered by wait coalescing
	hasPending bool
	coalesce   bool
	maxTime    dd.T // fusing horizon: waits beyond it cannot matter

	trace   []TracePoint
	stride  int
	skipped int
	cap     int
}

func newRunner(spec AgentSpec, slack float64, traceCap int, maxTime dd.T, coalesce bool) *runner {
	r := &runner{
		attrs:    spec.Attrs,
		cur:      prog.NewCursor(spec.Prog),
		radius:   spec.Radius*(1+slack) + 1e-12,
		pos:      spec.Attrs.Origin,
		segEnd:   dd.FromFloat(spec.Attrs.Wake),
		coalesce: coalesce,
		maxTime:  maxTime,
		stride:   1,
		cap:      traceCap,
	}
	r.record(0)
	return r
}

// stop releases the runner's instruction source (idempotent).
func (r *runner) stop() { r.cur.Close() }

// take returns the next program instruction, honoring the look-ahead
// buffer filled by wait coalescing.
func (r *runner) take() (prog.Instr, bool) {
	if r.hasPending {
		r.hasPending = false
		return r.pending, true
	}
	if r.srcDone {
		return prog.Instr{}, false
	}
	ins, ok := r.cur.Next()
	if !ok {
		r.srcDone = true
	}
	return ins, ok
}

// record appends a decimated trace point at absolute time t.
func (r *runner) record(t float64) {
	if r.cap <= 0 {
		return
	}
	r.skipped++
	if r.skipped < r.stride {
		return
	}
	r.skipped = 0
	if len(r.trace) >= r.cap {
		// Halve the density, double the stride.
		kept := r.trace[:0]
		for i := 0; i < len(r.trace); i += 2 {
			kept = append(kept, r.trace[i])
		}
		r.trace = kept
		r.stride *= 2
	}
	r.trace = append(r.trace, TracePoint{t, r.pos})
}

// advance moves the runner's position forward by dt absolute time
// units (within the current segment).
func (r *runner) advance(dt float64) {
	if r.vel == (geom.Vec2{}) {
		return
	}
	r.pos = r.pos.Add(r.vel.Scale(dt))
}

// velocity returns the absolute velocity of go(theta, ·), bit-identical
// to r.attrs.AbsVelocity(theta): the same frame, direction and speed
// products, with the frame built once and the result cached per θ.
func (r *runner) velocity(theta float64) geom.Vec2 {
	key := math.Float64bits(theta)
	for i := 0; i < r.velN; i++ {
		if r.velKeys[i] == key {
			return r.vels[i]
		}
	}
	if !r.hasFrame {
		r.frame, r.hasFrame = r.attrs.Frame(), true
	}
	v := r.frame.Apply(geom.Polar(theta)).Scale(r.attrs.Speed)
	i := r.velNext
	r.velKeys[i], r.vels[i] = key, v
	r.velNext = (i + 1) % velCacheSize
	if r.velN < velCacheSize {
		r.velN++
	}
	return v
}

// loadSegment pulls the next instruction and installs the segment
// starting at the given absolute time. Returns false when the program is
// exhausted. With coalescing enabled, a wait instruction absorbs every
// immediately following wait (up to waitFuseLimit, and only while the
// segment end stays below the MaxTime horizon), so runs of scheduling
// waits cost a single segment; the first non-wait look-ahead is buffered
// for the next call. Local time is accumulated per instruction either
// way, so fused and unfused runs agree on every boundary exactly.
func (r *runner) loadSegment(start dd.T) bool {
	for {
		ins, ok := r.take()
		if !ok {
			r.ended = true
			r.vel = geom.Vec2{}
			return false
		}
		if ins.Amount <= 0 {
			continue
		}
		r.local = r.local.AddFloat(ins.Duration())
		if ins.Op == prog.OpWait {
			r.vel = geom.Vec2{}
			if r.coalesce {
				r.fuseWaits()
			}
		} else {
			r.vel = r.velocity(ins.Theta)
		}
		// Absolute end = wake + τ·local, computed from the exact local
		// accumulator so long schedules do not drift.
		r.segEnd = r.local.MulFloat(r.attrs.Tau).AddFloat(r.attrs.Wake)
		r.record(start.Float64())
		return true
	}
}

// fuseWaits extends the current wait segment over every immediately
// following wait instruction. Each absorbed wait is added to the local
// clock individually, preserving the exact dd accumulation order of the
// unfused path. Fusing stops at the first non-wait (buffered as pending),
// at source exhaustion, at waitFuseLimit, or once the segment end passes
// the MaxTime horizon (later waits cannot influence the run).
func (r *runner) fuseWaits() {
	for fused := 0; fused < waitFuseLimit; fused++ {
		if r.maxTime.LessEq(r.local.MulFloat(r.attrs.Tau).AddFloat(r.attrs.Wake)) {
			return
		}
		ins, ok := r.take()
		if !ok {
			return
		}
		if ins.Amount <= 0 {
			continue
		}
		if ins.Op != prog.OpWait {
			r.pending, r.hasPending = ins, true
			return
		}
		r.local = r.local.AddFloat(ins.Duration())
	}
}

// freeze stops the runner forever at its current position.
func (r *runner) freeze() {
	r.frozen = true
	r.vel = geom.Vec2{}
	r.stop()
}

// Run simulates the two agents until rendezvous or a bound trips.
func Run(a, b AgentSpec, s Settings) Result {
	if s.MaxTime <= 0 {
		s.MaxTime = math.Inf(1)
	}
	if s.MaxSegments <= 0 {
		s.MaxSegments = math.MaxInt
	}
	maxTime := dd.FromFloat(s.MaxTime)
	ra := newRunner(a, s.SightSlack, s.TraceCap, maxTime, !s.NoWaitCoalesce)
	rb := newRunner(b, s.SightSlack, s.TraceCap, maxTime, !s.NoWaitCoalesce)
	defer ra.stop()
	defer rb.stop()

	// rBig/rSmall: staged stopping per Section 5. The far-sighted agent
	// freezes at gap ≤ rBig; rendezvous completes at gap ≤ rSmall.
	rSmall := math.Min(ra.radius, rb.radius)
	rBig := math.Max(ra.radius, rb.radius)

	res := Result{MinGap: math.Inf(1)}
	now := dd.Zero
	segments := 0

	finish := func(reason StopReason, at dd.T) Result {
		res.Reason = reason
		res.Met = reason == ReasonMet
		if res.Met {
			res.MeetTime = at
		}
		res.EndTime = at
		res.EndA, res.EndB = ra.pos, rb.pos
		res.Segments = segments
		ra.record(at.Float64())
		rb.record(at.Float64())
		res.TraceA, res.TraceB = ra.trace, rb.trace
		return res
	}

	noteGap := func(g float64, at dd.T) {
		if g < res.MinGap {
			res.MinGap = g
			res.MinGapTime = at
		}
	}

	for {
		// Ensure both runners have a current segment covering `now`.
		for _, r := range [2]*runner{ra, rb} {
			for !r.frozen && !r.ended && r.segEnd.LessEq(now) {
				if segments++; segments > s.MaxSegments {
					noteGap(ra.pos.Dist(rb.pos), now)
					return finish(ReasonMaxSegments, now)
				}
				if !r.loadSegment(now) {
					break
				}
			}
		}

		// Determine the end of the current homogeneous interval.
		end := maxTime
		active := false
		for _, r := range [2]*runner{ra, rb} {
			if !r.frozen && !r.ended {
				end = dd.Min(end, r.segEnd)
				active = true
			}
		}
		// Analytic sight detection over [now, end]. dt is the interval
		// length both runners advance by when no sight event cuts it.
		dt := end.Sub(now).Float64()
		T := dt
		if T < 0 {
			T = 0
		}
		ma := geom.Moving{P: ra.pos, V: ra.vel}
		mb := geom.Moving{P: rb.pos, V: rb.vel}
		// The gap's Hypot (and its dd timestamp) only matter when they
		// can set a new minimum; NormExceeds proves when they cannot.
		if s, d := geom.ClosestOffset(ma, mb, T); !d.NormExceeds(res.MinGap) {
			noteGap(d.Norm(), now.AddFloat(s))
		}

		sSmall, okSmall := geom.FirstWithin(ma, mb, T, rSmall)
		if rBig > rSmall {
			// Section 5 staged stop: the far-sighted agent freezes at gap
			// rBig, which must be processed before any rSmall contact that
			// would only happen with both agents still moving.
			if sBig, okBig := geom.FirstWithin(ma, mb, T, rBig); okBig && (!okSmall || sBig < sSmall) {
				at := now.AddFloat(sBig)
				step := at.Sub(now).Float64()
				ra.advance(step)
				rb.advance(step)
				if ra.radius >= rb.radius && !ra.frozen {
					ra.freeze()
				} else if !rb.frozen {
					rb.freeze()
				}
				rBig = rSmall // staged stop done; only the meet remains
				now = at
				continue
			}
		}
		if okSmall {
			at := now.AddFloat(sSmall)
			step := at.Sub(now).Float64()
			ra.advance(step)
			rb.advance(step)
			noteGap(ra.pos.Dist(rb.pos), at)
			return finish(ReasonMet, at)
		}

		// No sight possible in this interval: if neither agent will ever
		// move again the gap is settled for good.
		if !active {
			return finish(ReasonProgramsEnded, now)
		}
		// Advance to the interval end.
		ra.advance(dt)
		rb.advance(dt)
		now = end

		if maxTime.LessEq(now) {
			return finish(ReasonMaxTime, now)
		}
	}
}
