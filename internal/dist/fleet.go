package dist

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Fleet is a persistent worker session: the fleet is assembled (hosts
// dialed, subprocesses spawned, hellos exchanged, pool hints sent)
// exactly once, any number of batches and sweeps then run over the
// open connections, and Close tears everything down — so a run that
// executes many batches (rvtable regenerating T1–T6, a sweep per
// parameter, a service handling request after request) pays one dial
// and one handshake per host instead of one per batch.
//
// The fleet is multi-tenant (PR 10): concurrent Run/RunStream/Sweep
// calls do not queue behind each other — each becomes a dispatch with
// its own id and sequence space, and every connection interleaves
// jobs from all live dispatches under the fleet's fairness policy
// (sched.go, fairness.go). A connection that dies is re-dialed or
// respawned under the slot's session-lifetime respawn budget
// (Config.MaxRespawns — it never resets, so a host that keeps dying
// retires for good); adaptive window state lives on the connection
// and survives from one batch to the next, so a later batch starts
// with the window the earlier batches learned. Slots can join and
// drain mid-session: AddHost and Retire (membership.go).
//
// Session reuse, tenant interleaving, work stealing, and fairness are
// all pure scheduling, so any mix of concurrent batches and sweeps
// over any fleet produces per-call byte-identical results to the same
// calls run in-process serially.
//
// A nil *Fleet is the in-process case: its RunOrFallback,
// StreamOrFallback and SweepOrFallback run on the local pool, and its
// Close is a no-op. Callers that may or may not have dialed a fleet
// hold one handle and never branch. A one-shot caller (one batch, no
// session) dials, runs, and closes around the single call.
type Fleet struct {
	cfg Config

	// mu is THE scheduler lock: dispatch queues, per-connection
	// in-flight bookkeeping, window controllers, breaker state, and
	// membership all live under it; cond wakes idle senders and parked
	// runners when any of that changes.
	mu     sync.Mutex
	cond   *sync.Cond
	slots  []*slot
	closed bool

	// Resolved-once config (the scheduler reads them on hot paths).
	stall    time.Duration
	maxKills int
	fair     Fairness

	// Live dispatches in admission order, plus the fleet-wide ready
	// total mirrored into the queue-depth gauge.
	nextID  uint32
	arrival uint64
	live    []*dispatch
	queued  int

	// Scratch for pickLocked's fairness path, reused between claims.
	elig  []*dispatch
	views []DispatchView
}

// Dial assembles the worker fleet the config names and returns the
// open session. Individual workers that cannot be reached are reported
// on the config's stderr and skipped; Dial fails only when no worker
// at all came up (or the config names none). A fleet that came up
// empty counts one fallback (rv_dist_fallbacks_total), since callers
// degrade to in-process execution on that error.
func Dial(cfg Config) (*Fleet, error) {
	if !cfg.Enabled() {
		return nil, errors.New("dist: config names no workers")
	}
	slots, errs := assemble(cfg)
	if len(slots) == 0 {
		mFallbacks.Inc()
		return nil, fmt.Errorf("dist: no worker reachable: %w", errors.Join(errs...))
	}
	lg := logOf(cfg)
	for _, e := range errs {
		lg.Warn("dist: worker unavailable", "err", e)
	}
	f := &Fleet{
		cfg:      cfg,
		slots:    slots,
		stall:    cfg.stallTimeout(),
		maxKills: cfg.maxJobRequeues(),
		fair:     cfg.Fairness,
	}
	f.cond = sync.NewCond(&f.mu)
	for _, s := range slots {
		f.startSlot(s)
	}
	return f, nil
}

// startSlot initializes a slot's runner lifecycle and launches its
// persistent runner goroutine. Called at assembly and by AddHost.
func (f *Fleet) startSlot(s *slot) {
	s.backoff = f.cfg.redialWait()
	s.stopC = make(chan struct{})
	s.done = make(chan struct{})
	go f.runSlot(s)
}

// Size reports the number of fleet slots that have not retired (or
// begun draining). It is the worker count Stats reports for
// distributed batches.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, s := range f.slots {
		if !s.retired && !s.draining {
			n++
		}
	}
	return n
}

// Close ends the session: every live connection is closed (stdio
// workers exit on the EOF, TCP workers see the stream end), every
// still-live dispatch is finalized with an error, and later
// dispatches fail. Close blocks until every slot runner has exited.
// Closing an already-closed or a nil fleet is a no-op.
func (f *Fleet) Close() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	for len(f.live) > 0 {
		d := f.live[0]
		f.finishLocked(d, errors.Join(append(append([]error(nil), d.deadErrs...),
			fmt.Errorf("dist: fleet closed with %d jobs undone", d.remaining))...))
	}
	f.cond.Broadcast()
	slots := f.slots
	f.mu.Unlock()
	for _, s := range slots {
		s.interrupt()
	}
	for _, s := range slots {
		<-s.done
	}
	return nil
}

// Run executes the jobs across the session's fleet and returns results
// in input order plus aggregate accounting, byte-identical to
// batch.Run on the same jobs. localWorkers sizes the in-process pool
// for jobs without a wire form (≤ 0 selects GOMAXPROCS). The error is
// non-nil only when results are incomplete — every worker retired, or
// a job failed deterministically on a worker; the caller can then fall
// back to in-process execution, which purity guarantees produces the
// same output.
func (f *Fleet) Run(jobs []batch.Job, localWorkers int) ([]sim.Result, batch.Stats, error) {
	st := f.RunStream(jobs, localWorkers)
	results := make([]sim.Result, 0, len(jobs))
	for r := range st.Results() {
		results = append(results, r)
	}
	if err := st.Err(); err != nil {
		return nil, batch.Stats{}, err
	}
	return results, st.Stats(), nil
}

// RunStream is Run with ordered streaming delivery: the returned
// Stream releases results in input order as the completed prefix
// grows. Failures surface through Stream.Err after the channel closes,
// with the delivered prefix still byte-exact.
func (f *Fleet) RunStream(jobs []batch.Job, localWorkers int) *batch.Stream {
	canon, uniq := batch.Dedup(len(jobs), func(i int) any { return jobs[i].Key })

	// Partition the executing set: wire-formed jobs can ship to worker
	// processes, the rest run here. The partition is pure bookkeeping —
	// results land by input index either way.
	var remote, local []int
	for _, i := range uniq {
		if jobs[i].Wire != nil {
			remote = append(remote, i)
		} else {
			local = append(local, i)
		}
	}

	s, p := batch.NewStream(len(jobs))
	go func() {
		workers, distErr := f.run(jobs, canon, remote, local, localWorkers, p)
		p.Close(len(uniq), workers, distErr)
	}()
	return s
}

// RunOrFallback is Run with the standard degradation policy: when the
// distributed run fails (every worker retired, a job failed on a
// worker), the batch completes in-process instead — byte-identical by
// the determinism guarantee — after a warning on the config's stderr.
// A mid-run failure keeps the delivered ordered prefix and recomputes
// only the rest, so a single bad slot does not cost the whole batch
// twice. A nil fleet runs the whole batch in-process (batch.Run).
//
// Degradations are counted (rv_dist_fallbacks_total) and logged as
// structured events carrying the wrapped error and the fleet recipe,
// so silent in-process completion — invisible in the output bytes by
// design — is visible to an operator.
func (f *Fleet) RunOrFallback(jobs []batch.Job, localWorkers int) ([]sim.Result, batch.Stats) {
	if f == nil {
		return batch.Run(jobs, localWorkers)
	}
	st := f.RunStream(jobs, localWorkers)
	results := make([]sim.Result, 0, len(jobs))
	for r := range st.Results() {
		results = append(results, r)
	}
	err := st.Err()
	if err == nil {
		return results, st.Stats()
	}
	mFallbacks.Inc()
	logOf(f.cfg).Warn("dist: distributed batch failed; finishing in-process",
		"err", err, "delivered", len(results), "hosts", hostSummary(f.cfg))
	suffix, _ := batch.Run(jobs[len(results):], localWorkers)
	results = append(results, suffix...)
	// Accounting on the splice path: report the canonical execution set
	// (what a clean run of this batch executes); the suffix re-dedups
	// independently, so the actual execution count may have been higher.
	_, uniq := batch.Dedup(len(jobs), func(i int) any { return jobs[i].Key })
	return results, batch.FoldStats(results, len(uniq), pool.Workers(localWorkers, len(jobs)))
}

// StreamOrFallback is RunStream with the same degradation policy,
// flattened to a plain ordered channel buffered to len(jobs): every
// result is delivered in input order exactly once — distributed while
// the fleet holds, spliced with an in-process run of the undelivered
// suffix if it fails (determinism makes the splice exact). A nil fleet
// streams the whole batch in-process.
func (f *Fleet) StreamOrFallback(jobs []batch.Job, localWorkers int) <-chan sim.Result {
	out := make(chan sim.Result, len(jobs))
	go func() {
		defer close(out)
		delivered := 0
		if f != nil {
			st := f.RunStream(jobs, localWorkers)
			for r := range st.Results() {
				out <- r
				delivered++
			}
			err := st.Err()
			if err == nil {
				return
			}
			mFallbacks.Inc()
			logOf(f.cfg).Warn("dist: distributed batch failed; finishing in-process",
				"err", err, "delivered", delivered, "hosts", hostSummary(f.cfg))
		}
		for r := range batch.RunStream(jobs[delivered:], localWorkers).Results() {
			out <- r
		}
	}()
	return out
}

// run is the coordinator engine: the multi-tenant scheduler
// (sched.go) pipelines remote jobs over the session's fleet, an
// in-process pool runs the local jobs concurrently, and every
// completion releases the job's result (and its memoized duplicates)
// into the stream. It returns the worker count and distributed
// verdict for the caller's Producer.Close.
func (f *Fleet) run(jobs []batch.Job, canon, remote, local []int, localWorkers int, p *batch.Producer) (workers int, distErr error) {
	dups := batch.DupsOf(canon)
	deliver := func(i int, r sim.Result) {
		p.Put(i, r)
		for _, j := range dups[i] {
			p.Put(j, r.CloneTraces())
		}
	}

	var wg sync.WaitGroup
	localPool := 0
	if len(local) > 0 {
		localPool = pool.Workers(localWorkers, len(local))
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Do(len(local), localPool, func(k int) {
				i := local[k]
				deliver(i, sim.Run(jobs[i].A, jobs[i].B, jobs[i].Settings))
			})
		}()
	}

	fleetSize := 0
	if len(remote) > 0 {
		// Stats report the connections this batch could actually use:
		// dispatch truncates the active set to the task count, so a wide
		// session fleet running a narrow batch counts only the slots that
		// could have claimed a job.
		fleetSize = min(f.Size(), len(remote))
		tasks := make([]task, len(remote))
		for k, i := range remote {
			i := i
			tasks[k] = task{
				id:      i,
				payload: wire.EncodeJob(*jobs[i].Wire),
				deliver: func(body []byte) error {
					res, err := wire.DecodeResult(body)
					if err != nil {
						return err
					}
					deliver(i, res)
					return nil
				},
				// Long traces arrive as chunk frames the matcher assembled;
				// the closer carries only the scalars plus the point counts
				// the worker streamed, cross-checked here so a dropped or
				// duplicated chunk can never settle silently.
				deliverStreamed: func(body []byte, a, b []sim.TracePoint) error {
					res, nA, nB, err := wire.DecodeStreamedResult(body)
					if err != nil {
						return err
					}
					if nA != uint32(len(a)) || nB != uint32(len(b)) {
						return fmt.Errorf("streamed result trace counts %d/%d do not match assembled %d/%d",
							nA, nB, len(a), len(b))
					}
					res.TraceA, res.TraceB = a, b
					deliver(i, res)
					return nil
				},
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			distErr = f.dispatch(tasks, wire.FrameJob, wire.FrameResult)
		}()
	}

	wg.Wait()
	return fleetSize + localPool, distErr
}
