package dist

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	"repro/internal/wire"
)

// The shared multi-tenant scheduler (PR 10). Before it, a dispatch
// owned the whole fleet: Run/RunStream/Sweep serialized on the fleet
// mutex, and a second tenant queued behind the first even when surplus
// slots sat idle. Now each call is a *dispatch* — its own id, its own
// sequence space (wire v7 packs the dispatch id into the high half of
// every sequence number), its own ready queue — and every live
// dispatch feeds the fleet's slot runners concurrently. An idle
// connection claims from whichever dispatch the fairness policy picks
// (FIFO arrival order by default, see fairness.go), stealing across
// tenants whenever its own last dispatch has nothing eligible.
//
// Determinism is untouched: which connection claims a job, from which
// tenant, in what order, is pure scheduling. Every task settles
// exactly once into its own dispatch's delivery slots; the per-tenant
// bytes — including Stats.Executed — are identical to a serial run,
// which is exactly the §6–§8 argument (scheduling order is free as
// long as settlement stays canonical) extended across tenants.
//
// Concurrency model: ONE mutex (Fleet.mu) guards all scheduler state —
// dispatch queues, per-connection in-flight bookkeeping, window
// controllers, breaker state — with Fleet.cond for wakeups. Each slot
// has a persistent runner goroutine (runSlot) that owns the
// reconnect/budget/breaker loop; a live connection is driven by its
// runner (the sender half) plus one matcher goroutine (the reply
// half). Deliver continuations run outside the mutex: a slow consumer
// stalls its own connection, never the scheduler.
type dispatch struct {
	id                 uint32 // joins the wire sequence space: seq = id<<32 | k
	arrival            uint64 // fleet-wide admission order, drives FIFO fairness
	tasks              []task
	reqFrame, resFrame byte
	// clamp caps one connection's in-flight share of this dispatch at
	// ⌈tasks/width⌉ — the largest share a connection could hold if the
	// batch spread evenly over the slots able to serve it at admission
	// — so a small batch on a wide fleet doesn't hoard window slots no
	// schedule could fill, and one tenant cannot monopolize a
	// connection another tenant is waiting on.
	clamp int

	// queue holds the indices of unclaimed tasks (claims pop the
	// front, requeues append). remaining counts unsettled tasks; when
	// it reaches zero the dispatch finishes and its waiter wakes.
	queue     []int
	remaining int
	finished  bool
	err       error
	done      chan struct{}

	// Error severities, exactly as before: a deterministic job failure
	// poisons the run's verdict; a worker death only matters if jobs
	// are stranded when no slot can serve them.
	jobErrs  []error
	deadErrs []error
	// killers tracks, per task, the distinct slots whose death or
	// stall requeued it — the poison-job evidence.
	killers map[int]map[string]struct{}
}

// flight is one request awaiting its reply on one connection: the
// dispatch and task index it belongs to, and the send timestamp the
// adaptive controller derives RTT from.
type flight struct {
	d    *dispatch
	k    int
	sent time.Time
}

// connState is the per-connection scheduling state shared by a
// connection's sender (the slot runner) and its matcher. inflight and
// armStart are guarded by the fleet mutex; settled is touched only by
// the matcher.
type connState struct {
	inflight map[uint64]flight
	armStart time.Time // when in-flight went 0→1: the stall clock floor
	settled  int
}

// claim is one task handed from the scheduler to a sender.
type claim struct {
	seq     uint64
	typ     byte
	payload []byte
}

// errSlotStopped aborts a dial whose slot was interrupted (fleet
// closed or slot retired) while the dial was in flight.
var errSlotStopped = errors.New("dist: slot stopped")

// dispatch admits one batch of tasks as a new tenant dispatch, wakes
// the slot runners, and blocks until every task settles. It returns
// nil when every task settled by delivery, the joined job errors when
// workers reported deterministic failures, and the joined death log
// when tasks were stranded with no slot able to serve them.
// Concurrent dispatches interleave over the same connections; each
// one's verdict and delivered bytes are its own.
func (f *Fleet) dispatch(tasks []task, reqFrame, resFrame byte) error {
	if len(tasks) == 0 {
		return nil
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errors.New("dist: fleet is closed")
	}
	now := time.Now()
	able, cooling := 0, 0
	for _, s := range f.slots {
		switch {
		case s.retired || s.draining:
		case s.cooling(now):
			// An open breaker whose cooldown has not elapsed cannot
			// serve this dispatch now; one whose cooldown has passed
			// joins half-open (its reconnection dial is the probe).
			cooling++
		default:
			able++
		}
	}
	if able == 0 {
		f.mu.Unlock()
		if cooling > 0 {
			return fmt.Errorf("%w (%d slots cooling down)", ErrAllBreakersOpen, cooling)
		}
		return errors.New("dist: every fleet slot has retired")
	}
	width := able
	if width > len(tasks) {
		width = len(tasks)
	}
	mDispatches.Inc()
	f.nextID++ // first dispatch id is 1: id 0 is reserved as "no dispatch"
	d := &dispatch{
		id:        f.nextID,
		arrival:   f.arrival,
		tasks:     tasks,
		reqFrame:  reqFrame,
		resFrame:  resFrame,
		clamp:     (len(tasks) + width - 1) / width,
		queue:     make([]int, len(tasks)),
		remaining: len(tasks),
		done:      make(chan struct{}),
	}
	f.arrival++
	for i := range d.queue {
		d.queue[i] = i
	}
	f.live = append(f.live, d)
	f.queued += len(tasks)
	gSchedDispatchesLive.Set(float64(len(f.live)))
	gSchedQueuedJobs.Set(float64(f.queued))
	f.cond.Broadcast()
	f.mu.Unlock()
	<-d.done
	return d.err
}

// runSlot is one slot's persistent runner: drive the live connection
// while it lasts, reconnect with exponential backoff while there is
// live work to serve, park when there is none, and retire when the
// session-lifetime respawn budget is spent or the slot is drained.
func (f *Fleet) runSlot(s *slot) {
	defer close(s.done)
	lg := logOf(f.cfg)
	for {
		f.mu.Lock()
		if f.closed || s.draining {
			// A connection still parked here was never driven (Close or
			// Retire right after the dial or a reconnect): nothing else
			// owns it, so close it on the way out, or a stdio worker
			// subprocess and the connection's reader goroutine leak.
			wc := s.wc
			s.wc = nil
			if !f.closed {
				s.retired = true
				f.strandIfDeadLocked()
			}
			f.mu.Unlock()
			if wc != nil {
				wc.close()
			}
			return
		}
		if s.wc != nil {
			wc := s.wc
			f.mu.Unlock()
			if f.drive(s, wc, lg) {
				return
			}
			continue
		}
		// Reconnect phase. A dead slot only redials while live work
		// exists: between dispatches it parks, so an idle session
		// never burns respawn budget in the background.
		if len(f.live) == 0 {
			f.cond.Wait()
			f.mu.Unlock()
			continue
		}
		now := time.Now()
		if s.cooling(now) {
			until := s.openUntil
			f.mu.Unlock()
			sleepOrStop(time.Until(until), s.stopC)
			continue
		}
		if s.attempts >= f.cfg.maxRespawns() {
			s.retired = true
			f.strandIfDeadLocked()
			f.mu.Unlock()
			return
		}
		s.attempts++
		attempt := s.attempts
		wait := s.backoff
		s.backoff *= 2
		f.mu.Unlock()
		if !sleepOrStop(wait, s.stopC) {
			continue
		}
		wc, err := dialSlot(s)
		if err != nil {
			if errors.Is(err, errSlotStopped) {
				continue
			}
			f.mu.Lock()
			if len(f.live) == 0 {
				// The work drained while the dial was failing: nobody
				// was stranded by it, so it is not a death worth
				// counting against anyone's verdict.
				f.mu.Unlock()
				continue
			}
			s.met.deaths.Inc()
			derr := fmt.Errorf("dist: %s: reconnect attempt %d: %w", s.name, attempt, err)
			for _, d := range f.live {
				d.deadErrs = append(d.deadErrs, derr)
			}
			// Logged under the lock, before any strand: see finishConn.
			if s.fail(f.cfg) {
				lg.Warn("dist: circuit breaker open", "slot", s.name, "failures", s.fails, "cooldown", s.cooldown)
				f.strandIfDeadLocked()
			}
			f.mu.Unlock()
			continue
		}
		wc.win = newAdaptiveWindow(f.cfg)
		f.mu.Lock()
		if f.closed || s.draining {
			f.mu.Unlock()
			wc.close()
			continue
		}
		s.wc = wc
		s.connErr = nil
		s.backoff = f.cfg.redialWait()
		s.met.reconnects.Inc()
		lg.Info("dist: worker reconnected", "slot", s.name, "attempt", attempt)
		f.mu.Unlock()
	}
}

// sleepOrStop waits d, or returns false early if the slot is
// interrupted (fleet close, retire).
func sleepOrStop(d time.Duration, stopC <-chan struct{}) bool {
	if d <= 0 {
		select {
		case <-stopC:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stopC:
		return false
	}
}

// dialSlot re-establishes the slot's connection, abandoning the
// attempt the moment the slot is interrupted (the dial goroutine
// cleans up its own connection if one materializes late).
func dialSlot(s *slot) (*workerConn, error) {
	type res struct {
		wc  *workerConn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		wc, err := s.dial()
		ch <- res{wc, err}
	}()
	select {
	case r := <-ch:
		return r.wc, r.err
	case <-s.stopC:
		go func() {
			if r := <-ch; r.wc != nil {
				r.wc.close()
			}
		}()
		return nil, errSlotStopped
	}
}

// drive runs the windowed pipeline on one live connection: the runner
// goroutine claims tasks from whichever dispatch the fairness policy
// picks and writes request frames while the adaptive window has a
// free slot; the matcher goroutine consumes the connection's
// persistent frame reader and settles replies by sequence number.
// Unlike the pre-PR10 engine, drive does not return when a dispatch
// drains — the connection stays parked inside the claim wait, already
// warm for the next tenant. It returns only when the connection dies
// (false: the runner reconnects) or the slot's life ends (true:
// fleet closed or slot drained).
func (f *Fleet) drive(s *slot, wc *workerConn, lg *slog.Logger) (exit bool) {
	cs := &connState{inflight: make(map[uint64]flight)}
	matcherDone := make(chan struct{})
	go func() {
		defer close(matcherDone)
		f.match(s, wc, cs)
	}()
	for {
		f.mu.Lock()
		var cl claim
		for {
			if f.closed || s.draining || s.connErr != nil {
				return f.finishConn(s, wc, cs, matcherDone, lg)
			}
			var ok bool
			if cl, ok = f.tryClaimLocked(s, wc, cs); ok {
				break
			}
			f.cond.Wait()
		}
		f.mu.Unlock()
		if err := wc.send(cl.seq, cl.typ, cl.payload); err != nil {
			// The flight is already booked; finishConn requeues it
			// with everything else once the matcher is joined.
			f.mu.Lock()
			if s.connErr == nil {
				s.connErr = err
			}
			f.mu.Unlock()
		}
	}
}

// tryClaimLocked claims the next task for this connection, if its
// window has room and some live dispatch has an eligible queued task.
// Called with the fleet mutex held.
func (f *Fleet) tryClaimLocked(s *slot, wc *workerConn, cs *connState) (claim, bool) {
	if s.inflightN >= wc.win.cur {
		return claim{}, false
	}
	d, steal := f.pickLocked(s)
	if d == nil {
		return claim{}, false
	}
	k := d.queue[0]
	d.queue = d.queue[1:]
	f.queued--
	gSchedQueuedJobs.Set(float64(f.queued))
	if s.inflightN == 0 {
		// Idle time between claims is not service time: reset the
		// controller's reply clock (its RTT/gap estimates survive —
		// the link didn't change, the workload pause did). In-flight
		// going 0→1 also re-arms the stall clock: lastRecv may be
		// long stale after an idle stretch, and idleness is not a
		// stall — only silence with work outstanding is.
		wc.win.lastReply = time.Time{}
		if f.stall > 0 {
			cs.armStart = time.Now()
		}
	}
	fl := flight{d: d, k: k}
	if !wc.win.fixed {
		// The send timestamp only feeds the adaptive controller's
		// RTT estimate; a fixed window skips the clock read.
		fl.sent = time.Now()
	}
	seq := wire.DispatchSeq(d.id, uint32(k))
	cs.inflight[seq] = fl
	s.inflightN++
	if s.perDisp == nil {
		s.perDisp = make(map[uint32]int)
	}
	s.perDisp[d.id]++
	s.met.dispatched.Inc()
	s.met.inflight.Set(float64(s.inflightN))
	s.met.claims.Inc()
	if steal {
		s.met.steals.Inc()
	}
	s.lastDisp = d.id
	return claim{seq: seq, typ: d.reqFrame, payload: d.tasks[k].payload}, true
}

// pickLocked chooses which live dispatch this connection claims from:
// the fairness policy picks among the dispatches with queued work
// whose per-connection clamp this connection has not filled. The
// second result reports a steal — the connection switched away from a
// dispatch that is still live.
func (f *Fleet) pickLocked(s *slot) (*dispatch, bool) {
	var d *dispatch
	if f.fair == nil {
		// FIFO fast path: first eligible dispatch in arrival order,
		// no view construction.
		for _, c := range f.live {
			if len(c.queue) > 0 && s.perDisp[c.id] < c.clamp {
				d = c
				break
			}
		}
	} else {
		f.elig = f.elig[:0]
		f.views = f.views[:0]
		for _, c := range f.live {
			if len(c.queue) > 0 && s.perDisp[c.id] < c.clamp {
				f.elig = append(f.elig, c)
				f.views = append(f.views, DispatchView{
					ID:      c.id,
					Arrival: c.arrival,
					Queued:  len(c.queue),
					Total:   len(c.tasks),
				})
			}
		}
		if len(f.elig) == 0 {
			return nil, false
		}
		i := f.fair.Pick(f.views)
		if i < 0 || i >= len(f.elig) {
			i = 0
		}
		d = f.elig[i]
	}
	if d == nil {
		return nil, false
	}
	steal := false
	if s.lastDisp != 0 && s.lastDisp != d.id {
		for _, c := range f.live {
			if c.id == s.lastDisp {
				steal = true
				break
			}
		}
	}
	return d, steal
}

// finishConn retires one connection: close it, join its matcher, then
// under the fleet mutex disposition everything that was in flight.
// Entered with the fleet mutex held; returns with it released. The
// result is drive's verdict: true means the slot's life is over
// (fleet closed or slot drained), false means a transport death the
// runner should reconnect from.
func (f *Fleet) finishConn(s *slot, wc *workerConn, cs *connState, matcherDone chan struct{}, lg *slog.Logger) (exit bool) {
	f.mu.Unlock()
	wc.close()
	<-matcherDone
	f.mu.Lock()
	err := s.connErr
	s.connErr = nil
	s.wc = nil
	s.inflightN = 0
	s.perDisp = nil
	s.lastDisp = 0
	s.met.inflight.Set(0)
	switch {
	case f.closed:
		// Close already finalized every live dispatch; the in-flight
		// bytes have nowhere to go.
		cs.inflight = nil
		f.cond.Broadcast()
		f.mu.Unlock()
		return true
	case s.draining:
		// Retire reuses the death path's requeue — blameless: the
		// operator drained the slot, the jobs didn't kill it.
		for _, fl := range cs.inflight {
			f.requeueLocked(fl.d, fl.k, s, false)
		}
		cs.inflight = nil
		s.retired = true
		f.strandIfDeadLocked()
		f.cond.Broadcast()
		f.mu.Unlock()
		return true
	}
	// Transport death. Whether it counts — the death counter, the
	// dispatches' death logs, the breaker — is decided by whether live
	// work existed at the moment of death, sampled BEFORE the requeues
	// below: a requeue may quarantine the last job and finish its
	// dispatch, and that must not retroactively make its killer's
	// death a non-event. A parked connection dying between dispatches,
	// by contrast, strands nobody and poisons no verdict: it is not
	// counted, and the runner simply parks until the next dispatch
	// warrants a redial.
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	counted := len(f.live) > 0
	if counted {
		s.met.deaths.Inc()
		derr := fmt.Errorf("dist: worker %s: %w", s.name, err)
		for _, d := range f.live {
			d.deadErrs = append(d.deadErrs, derr)
		}
	}
	// Every in-flight task requeues exactly once (the matcher being
	// joined is what makes "still in flight" unambiguous; each requeue
	// may quarantine its job instead, if this slot was the job's Kth
	// distinct killer).
	for _, fl := range cs.inflight {
		f.requeueLocked(fl.d, fl.k, s, true)
	}
	cs.inflight = nil
	if counted {
		// Logs are emitted under the lock, BEFORE the strand that may
		// finalize a dispatch: the write is then ordered before the
		// dispatch's verdict, so a caller that reads the session log
		// right after an error always finds the episode, never races
		// it.
		if s.fail(f.cfg) {
			lg.Warn("dist: circuit breaker open", "slot", s.name, "failures", s.fails, "cooldown", s.cooldown)
			f.strandIfDeadLocked()
		} else if s.attempts < f.cfg.maxRespawns() {
			lg.Warn("dist: worker died; reconnecting", "slot", s.name, "err", err)
		}
	}
	f.cond.Broadcast()
	f.mu.Unlock()
	return false
}

// requeueLocked returns a task to its dispatch's queue after the
// failure (or drain) of the named slot — unless blame applies and the
// task has now been in flight on maxKills distinct failing slots, in
// which case it is quarantined: settled as a deterministic per-job
// error, so a poison job that crashes or hangs every worker it lands
// on cannot exhaust the whole session's respawn budget. Requeue is
// pure scheduling either way: a requeued task recomputes the
// identical pure result, and a quarantined one reports an error
// exactly where a clean run reports a result, leaving every other
// task's bytes untouched.
func (f *Fleet) requeueLocked(d *dispatch, k int, s *slot, blame bool) {
	if d.finished {
		return
	}
	if blame && f.maxKills > 0 {
		m := d.killers[k]
		if m == nil {
			if d.killers == nil {
				d.killers = make(map[int]map[string]struct{})
			}
			m = make(map[string]struct{})
			d.killers[k] = m
		}
		m[s.name] = struct{}{}
		if len(m) >= f.maxKills {
			mQuarantined.Inc()
			d.jobErrs = append(d.jobErrs, fmt.Errorf("dist: job %d quarantined after its dispatch killed or stalled %d distinct workers (poison job?)", d.tasks[k].id, len(m)))
			f.settleLocked(d)
			return
		}
	}
	s.met.requeued.Inc()
	d.queue = append(d.queue, k)
	f.queued++
	gSchedQueuedJobs.Set(float64(f.queued))
}

// settleLocked records one task of d as settled (delivered, failed
// deterministically, or quarantined) and finishes the dispatch when
// it was the last.
func (f *Fleet) settleLocked(d *dispatch) {
	if d.finished {
		return
	}
	d.remaining--
	if d.remaining == 0 {
		var err error
		if len(d.jobErrs) > 0 {
			err = errors.Join(d.jobErrs...)
		}
		f.finishLocked(d, err)
	}
}

// finishLocked finalizes a dispatch with its verdict, removes it from
// the live set, and wakes its waiter.
func (f *Fleet) finishLocked(d *dispatch, err error) {
	if d.finished {
		return
	}
	d.finished = true
	d.err = err
	for i, c := range f.live {
		if c == d {
			f.live = append(f.live[:i], f.live[i+1:]...)
			break
		}
	}
	f.queued -= len(d.queue)
	d.queue = nil
	gSchedDispatchesLive.Set(float64(len(f.live)))
	gSchedQueuedJobs.Set(float64(f.queued))
	close(d.done)
	f.cond.Broadcast()
}

// strandIfDeadLocked checks whether any slot can still serve work —
// neither retired, draining, nor sitting out a breaker cooldown — and
// if none can, finalizes every live dispatch with its death log plus
// the stranding verdict. Called whenever a slot leaves service.
func (f *Fleet) strandIfDeadLocked() {
	if len(f.live) == 0 {
		return
	}
	now := time.Now()
	for _, s := range f.slots {
		if !s.retired && !s.draining && !s.cooling(now) {
			return
		}
	}
	for len(f.live) > 0 {
		d := f.live[0]
		f.finishLocked(d, errors.Join(append(append([]error(nil), d.deadErrs...),
			fmt.Errorf("dist: %d jobs undone after every worker failed", d.remaining))...))
	}
}

// match is one connection's matcher goroutine: it consumes the
// persistent frame reader, settles replies by sequence number
// (coalesced batches entry by entry), reassembles streamed traces,
// feeds the window controller, and arms the liveness stall detector.
// It exits when the connection's frame stream ends; its verdict is
// published as slot.connErr (first writer wins — the sender may have
// hit a write error first).
//
// Liveness: while jobs are in flight, no frame of any kind within
// max(stall, stallRTTFactor·rttEWMA) declares the connection hung and
// retires it through the same path as a death, requeueing its window.
// At half the deadline the matcher pings the worker; a healthy worker
// echoes from its read loop even while its executors grind, so only a
// dead process, a blackholed link, or a truly wedged worker ever
// reaches the deadline. Stall handling is pure scheduling: a requeued
// job recomputes the identical pure result on a survivor.
func (f *Fleet) match(s *slot, wc *workerConn, cs *connState) {
	die := func(err error) {
		f.mu.Lock()
		if s.connErr == nil {
			s.connErr = err
		}
		f.cond.Broadcast()
		f.mu.Unlock()
	}
	// Streamed-trace reassembly (wire v6), keyed by sequence number.
	// Local to this matcher: a connection death discards its partial
	// assemblies with it, and the requeued jobs start their streams
	// over on a survivor.
	var asm map[uint64]*traceAssembly
	// Wire byte counters: fold this connection's per-frame tallies
	// into the process counters as deltas, and surface the combined
	// compression ratio per slot.
	var lastTxW, lastRxW uint64
	bytesTick := func() {
		tx, rx := wc.fw.Stats(), wc.fr.Stats()
		mWireTxBytes.Add(tx.Wire - lastTxW)
		mWireRxBytes.Add(rx.Wire - lastRxW)
		lastTxW, lastRxW = tx.Wire, rx.Wire
		if onWire := tx.Wire + rx.Wire; onWire > 0 && wc.fw.Compressing() {
			s.met.compression.Set(float64(tx.Raw+rx.Raw) / float64(onWire))
		}
	}
	defer bytesTick()
	// The stall deadline and its check interval, recomputed per fire
	// because the RTT EWMA moves. The interval quarters the deadline
	// so a stall is declared within ~1.25× the configured deadline in
	// the worst phase alignment.
	deadline := func() time.Duration {
		d := f.stall
		f.mu.Lock()
		rtt := wc.win.rtt
		f.mu.Unlock()
		if r := time.Duration(rtt * float64(time.Second) * stallRTTFactor); r > d {
			d = r
		}
		return d
	}
	var stallC <-chan time.Time
	var stallTimer *time.Timer
	if f.stall > 0 {
		iv := max(deadline()/4, time.Millisecond)
		stallTimer = time.NewTimer(iv)
		defer stallTimer.Stop()
		stallC = stallTimer.C
	}
	var lastRecv time.Time // last frame arrival (any type); matcher-local
	var pingNonce uint64
	for {
		select {
		case now := <-stallC:
			f.mu.Lock()
			n := s.inflightN
			clock := lastRecv
			if cs.armStart.After(clock) {
				clock = cs.armStart
			}
			f.mu.Unlock()
			if n > 0 {
				d := deadline()
				idle := now.Sub(clock)
				if idle >= d {
					die(fmt.Errorf("no frame for %v with %d jobs in flight (liveness deadline %v): presumed hung", idle.Round(time.Millisecond), n, d))
					return
				}
				if idle >= d/2 {
					// Silent but not yet condemned: probe. Only a received
					// frame resets the stall clock, so a worker that eats
					// pings without echoing still hits the deadline.
					if err := wc.ping(pingNonce); err != nil {
						die(fmt.Errorf("liveness ping: %w", err))
						return
					}
					mPings.Inc()
					pingNonce++
				}
			}
			stallTimer.Reset(max(deadline()/4, time.Millisecond))
		case fr, ok := <-wc.frames:
			if !ok {
				err := wc.readErr
				if err == nil {
					err = io.ErrUnexpectedEOF
				}
				die(err)
				return
			}
			if stallC != nil {
				lastRecv = time.Now()
			}
			bytesTick()
			var replies []wire.Reply
			var single [1]wire.Reply
			switch fr.typ {
			case wire.FrameReplyBatch:
				var err error
				if replies, err = wire.DecodeReplies(fr.payload()); err != nil {
					die(err)
					return
				}
			case wire.FrameResult, wire.FrameSweepResult, wire.FrameError, wire.FrameTraceChunk:
				// Multi-tenant: batch and sweep dispatches share the
				// connection, so both result frame types are live at
				// once; each flight checks the type against its own
				// dispatch's expectation below.
				seq, body, err := wire.SplitSeq(fr.payload())
				if err != nil {
					die(err)
					return
				}
				single[0] = wire.Reply{Seq: seq, Typ: fr.typ, Body: body}
				replies = single[:]
			case wire.FramePong:
				// Liveness echo: its arrival already reset the stall
				// clock, which is its load-bearing meaning. Since wire
				// v5 it also carries the worker's per-stream stats;
				// cache them for Fleet.Snapshot. A malformed payload is
				// ignored rather than fatal — the probe did its job by
				// arriving.
				mPongs.Inc()
				if _, ws, perr := wire.DecodePong(fr.payload()); perr == nil {
					wc.stats.Store(&ws)
				}
				fr.release()
				continue
			default:
				die(fmt.Errorf("unexpected frame type %d", fr.typ))
				return
			}
			// A coalesced batch is k replies that arrived at once:
			// spread the observed arrival gap over them so the
			// controller sees the true per-reply service rate. A fixed
			// window observes nothing and pays for no clock reads at
			// all — the in-process-adjacent loopback path is exactly
			// where time.Now() per reply showed up in profiles.
			var (
				now   time.Time
				gap   time.Duration
				adapt bool
			)
			if !wc.win.fixed {
				now = time.Now()
				f.mu.Lock()
				gap, adapt = wc.win.settleGap(now, len(replies))
				f.mu.Unlock()
			}
			for _, r := range replies {
				if r.Typ == wire.FrameTraceChunk {
					// One bounded run of a streamed trace: accumulate it
					// against the job's assembly and move on. The job
					// stays in flight — only its closing result frame
					// settles it — so a connection death mid-stream
					// requeues the job and discards the partial assembly
					// with this matcher.
					f.mu.Lock()
					fl, ok := cs.inflight[r.Seq]
					f.mu.Unlock()
					if !ok {
						die(fmt.Errorf("trace chunk for sequence %d that is not in flight", r.Seq))
						return
					}
					if fl.d.tasks[fl.k].deliverStreamed == nil {
						die(fmt.Errorf("unexpected trace chunk for job %d", fl.d.tasks[fl.k].id))
						return
					}
					as := asm[r.Seq]
					if as == nil {
						if asm == nil {
							asm = make(map[uint64]*traceAssembly)
						}
						as = &traceAssembly{}
						asm[r.Seq] = as
					}
					if err := as.add(r.Body); err != nil {
						die(err)
						return
					}
					continue
				}
				f.mu.Lock()
				fl, ok := cs.inflight[r.Seq]
				var skip bool
				if ok {
					delete(cs.inflight, r.Seq)
					s.inflightN--
					s.perDisp[fl.d.id]--
					if adapt {
						rtt := now.Sub(fl.sent)
						wc.win.observe(rtt, gap)
						// The latency histogram piggybacks on the adaptive
						// controller's timestamps; fixed windows skip every
						// clock read (the PR6 hot path) and so observe
						// nothing here either.
						hJobLatency.Observe(rtt.Seconds())
						s.met.window.Set(float64(wc.win.cur))
						s.met.rtt.Set(wc.win.rtt)
					}
					s.met.inflight.Set(float64(s.inflightN))
					skip = fl.d.finished
					f.cond.Broadcast()
				}
				f.mu.Unlock()
				if !ok {
					die(fmt.Errorf("answer for sequence %d that is not in flight", r.Seq))
					return
				}
				if skip {
					// The dispatch was finalized (stranded, or the fleet
					// closed) while this reply was on the wire: its
					// caller has already been answered, so the bytes
					// have nowhere deterministic to land. Drop them.
					delete(asm, r.Seq)
					continue
				}
				switch r.Typ {
				case fl.d.resFrame:
					var derr error
					if as, streamed := asm[r.Seq]; streamed {
						// The chunks came first (per-stream order), so an
						// existing assembly is what marks this result as
						// the streamed closer.
						delete(asm, r.Seq)
						derr = fl.d.tasks[fl.k].deliverStreamed(r.Body, as.a, as.b)
					} else {
						derr = fl.d.tasks[fl.k].deliver(r.Body)
					}
					if derr != nil {
						// Corrupt reply: requeue the task (it already left
						// the in-flight map) and retire the connection.
						f.mu.Lock()
						f.requeueLocked(fl.d, fl.k, s, true)
						f.cond.Broadcast()
						f.mu.Unlock()
						die(fmt.Errorf("reply for job %d: %w", fl.d.tasks[fl.k].id, derr))
						return
					}
					f.mu.Lock()
					cs.settled++
					if cs.settled == 1 {
						// The connection settled real work: whatever
						// failure streak the slot carried, the host is
						// reachable and executing — not breaker material.
						s.recover()
					}
					f.settleLocked(fl.d)
					f.mu.Unlock()
					s.met.settled.Inc()
				case wire.FrameError:
					// Deterministic job failure: requeueing would fail
					// identically on every worker. Count it settled so
					// the dispatch drains; its verdict reports it. Any
					// partial trace stream is abandoned with it.
					delete(asm, r.Seq)
					f.mu.Lock()
					fl.d.jobErrs = append(fl.d.jobErrs, fmt.Errorf("dist: job %d on %s: %w", fl.d.tasks[fl.k].id, wc.name, &jobError{msg: string(r.Body)}))
					cs.settled++
					if cs.settled == 1 {
						s.recover()
					}
					f.settleLocked(fl.d)
					f.mu.Unlock()
					s.met.settled.Inc()
				default:
					f.mu.Lock()
					f.requeueLocked(fl.d, fl.k, s, true)
					f.cond.Broadcast()
					f.mu.Unlock()
					die(fmt.Errorf("unexpected reply type %d for sequence %d", r.Typ, r.Seq))
					return
				}
			}
			fr.release()
		}
	}
}
