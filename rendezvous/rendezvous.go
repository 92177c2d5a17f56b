// Package rendezvous is the public API of the reproduction of
// "Almost Universal Anonymous Rendezvous in the Plane" (Bouchard,
// Dieudonné, Pelc, Petit — SPAA 2020).
//
// It exposes the instance model, the algorithms (the paper's
// AlmostUniversalRV, the CGKK and Latecomers substrates, and the
// dedicated boundary algorithms), and an exact event-driven simulator
// that decides whether two agents executing an algorithm ever come
// within sight radius r of each other.
//
// Quick start:
//
//	in := rendezvous.Instance{R: 0.8, X: 1.2, Y: 0.5, Phi: 1.0,
//	    Tau: 1, V: 1, T: 0.5, Chi: 1}
//	res := rendezvous.Simulate(in, rendezvous.AlmostUniversalRV(),
//	    rendezvous.DefaultSettings())
//	fmt.Println(res.Met, res.MeetTime.Float64())
//
// # Batch execution
//
// SimulateBatch runs many instances at once on a worker pool sized by
// Settings.Parallelism (0 selects GOMAXPROCS). The batch engine is
// deterministic by construction: every job is an independent pure
// simulation, results are written by input index, and aggregates are
// folded serially afterwards — so the result slice is byte-identical
// to calling Simulate in a loop, for every worker count. Use it
// whenever throughput matters (experiment tables, parameter sweeps,
// benchmark fleets); use Simulate when one answer does.
//
// Batches also distribute across processes and hosts
// (Settings.WorkerProcs spawns local worker subprocesses,
// Settings.Hosts names a TCP fleet of cmd/rvworker processes) and
// stream (SimulateBatchStream delivers results in input order as the
// completed prefix grows) — in every case byte-identical to the
// in-process serial run; see DESIGN.md §6. Distributed dispatch is
// pipelined: each worker connection keeps a window of jobs in flight
// (fixed at Settings.Window, or adaptive from observed latency up to
// Settings.MaxWindow — hiding network latency either way) and each
// worker process runs its own Settings.Parallelism-sized pool (or the
// per-host pool a "host:port*pool" entry in Settings.Hosts hints), so
// one worker saturates one host; lost workers are re-dialed or
// respawned mid-run (DESIGN.md §7). The dispatch engine carries a full
// failure model (DESIGN.md §10): workers that hang without closing
// their connection are detected by liveness pings and a stall deadline
// (Settings.StallTimeout), jobs that repeatedly kill the workers they
// land on are quarantined as per-job errors (Settings.MaxJobRequeues),
// and when the whole fleet is lost the batch entry points degrade to
// in-process execution — byte-identical by the same determinism
// guarantee. Callers that run many batches
// should hold the fleet open across them: DialFleet dials the session
// once, Fleet.SimulateBatch reuses it per call (DESIGN.md §8).
package rendezvous

import (
	"errors"
	"log/slog"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/cgkk"
	"repro/internal/core"
	"repro/internal/dedicated"
	"repro/internal/dist"
	"repro/internal/inst"
	"repro/internal/latecomers"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Instance is the rendezvous instance tuple (r, x, y, φ, τ, v, t, χ) of
// §1.2 of the paper: agent B's private attributes relative to agent A.
type Instance = inst.Instance

// Type is the four-way instance categorization of §3.1.1.
type Type = inst.Type

// Result is the outcome of a simulation run.
type Result = sim.Result

// Settings bound a simulation run.
type Settings = sim.Settings

// Schedule collects the tunable constants of Algorithm 1.
type Schedule = core.Schedule

// DefaultSettings returns permissive simulation bounds.
func DefaultSettings() Settings { return sim.DefaultSettings() }

// CompactSchedule is the simulable schedule (see DESIGN.md §3).
func CompactSchedule() Schedule { return core.Compact() }

// FaithfulSchedule reproduces the paper's printed constants.
func FaithfulSchedule() Schedule { return core.Faithful() }

// Algorithm is a deterministic anonymous rendezvous algorithm: both
// agents execute Program(in), each in its own private frame. Universal
// algorithms ignore the instance; dedicated algorithms may use it (the
// agents still do not know which of them is which).
type Algorithm struct {
	Name    string
	Program func(in Instance) prog.Program
	// wireName is the algorithm's identity in the wire registry, set
	// only by this package's constructors when Program provably matches
	// the registered constructor — the Name field alone is not enough
	// (a caller can hand AlmostUniversalRVWith a tweaked schedule whose
	// Name still reads "compact"). Algorithms without a wireName simply
	// run in-process; they are never shipped to workers under a name
	// that might mean something else there.
	wireName string
}

// AlmostUniversalRV returns the paper's Algorithm 1 under the compact
// schedule.
func AlmostUniversalRV() Algorithm { return AlmostUniversalRVWith(core.Compact()) }

// AlmostUniversalRVWith returns Algorithm 1 under an explicit schedule.
// Only a schedule still exactly as a standard constructor built it
// (Schedule.Canonical) gets a wire identity: a tweaked schedule keeps
// working in-process but is never shipped to workers under a name that
// would rebuild the untweaked program there.
func AlmostUniversalRVWith(s Schedule) Algorithm {
	alg := Algorithm{
		Name:    "AlmostUniversalRV(" + s.Name + ")",
		Program: func(Instance) prog.Program { return core.Program(s, nil) },
	}
	if s.Canonical() {
		alg.wireName = alg.Name
	}
	return alg
}

// CGKK returns the substrate procedure with the contract of [18]:
// rendezvous for t = 0 instances that are non-synchronous or have
// φ ≠ 0 ∧ χ = 1.
func CGKK() Algorithm {
	return Algorithm{
		Name:     "CGKK",
		Program:  func(Instance) prog.Program { return cgkk.Program(cgkk.Compact()) },
		wireName: "CGKK",
	}
}

// Latecomers returns the substrate procedure with the contract of [38]:
// rendezvous for synchronous, same-frame instances with t > d − r.
func Latecomers() Algorithm {
	return Algorithm{
		Name:     "Latecomers",
		Program:  func(Instance) prog.Program { return latecomers.Program() },
		wireName: "Latecomers",
	}
}

// Dedicated returns a per-instance algorithm witnessing Theorem 3.1
// feasibility, including the S1/S2 boundary algorithms; ok is false for
// infeasible instances.
func Dedicated(in Instance) (Algorithm, bool) {
	p, ok := dedicated.ForInstance(in, core.Compact())
	if !ok {
		return Algorithm{}, false
	}
	return Algorithm{
		Name:    "Dedicated",
		Program: func(Instance) prog.Program { return p },
	}, true
}

// Simulate runs the two agents of the instance under the algorithm.
func Simulate(in Instance, alg Algorithm, s Settings) Result {
	a := sim.AgentSpec{Attrs: in.AgentA(), Prog: alg.Program(in), Radius: in.R}
	b := sim.AgentSpec{Attrs: in.AgentB(), Prog: alg.Program(in), Radius: in.R}
	return sim.Run(a, b, s)
}

// Compile-time guards on memo-key comparability. The batch memo key is
// the bare Instance (see batchJobs); wire.Job values (Instance +
// algorithm name + Settings) are used as map keys by callers memoizing
// across dispatches. Adding a non-comparable field (a callback, a
// slice) to either struct would turn those uses into runtime "hash of
// unhashable type" panics; these lines move that failure to build time.
var (
	_ = map[Instance]struct{}{}
	_ = map[Settings]struct{}{}
)

// batchJobs builds the batch job list for a SimulateBatch-style call:
// per-instance agent specs, the memoization key (unless disabled), and
// — when the algorithm carries a wire identity that is registered — the
// serializable wire form that lets the job execute in a worker process.
func batchJobs(ins []Instance, alg Algorithm, s Settings) []batch.Job {
	registered := alg.wireName != "" && wire.Registered(alg.wireName)
	jobs := make([]batch.Job, len(ins))
	for i, in := range ins {
		jobs[i] = batch.Job{
			A:        sim.AgentSpec{Attrs: in.AgentA(), Prog: alg.Program(in), Radius: in.R},
			B:        sim.AgentSpec{Attrs: in.AgentB(), Prog: alg.Program(in), Radius: in.R},
			Settings: s,
		}
		if !s.NoBatchMemoize {
			// The algorithm and settings are constants of this call, and
			// memo keys never outlive one batch run (Dedup's map is local
			// to it), so the Instance alone fully identifies the
			// simulation input. Keying on the bare Instance keeps the
			// dedup map hashing a small scalar struct; the old composite
			// key re-hashed the full Settings — Hosts and WorkerCmd
			// strings included — for every job in the batch.
			jobs[i].Key = in
		}
		if registered {
			jobs[i].Wire = &wire.Job{In: in, Alg: alg.wireName, Set: s}
		}
	}
	return jobs
}

// distConfig translates the distribution knobs of Settings into a
// worker-fleet config; ok is false when the settings request none. A
// malformed Hosts entry (a bad host:port*pool hint) is an error — the
// batch entry points warn and run in-process, DialFleet propagates it.
func distConfig(s Settings) (dist.Config, bool, error) {
	if s.Hosts == "" && s.WorkerProcs <= 0 {
		return dist.Config{}, false, nil
	}
	hosts, err := dist.ParseHosts(s.Hosts)
	if err != nil {
		return dist.Config{}, false, err
	}
	cfg := dist.Config{
		Procs:          s.WorkerProcs,
		Hosts:          hosts,
		Window:         s.Window,
		MaxWindow:      s.MaxWindow,
		StallTimeout:   s.StallTimeout,
		MaxJobRequeues: s.MaxJobRequeues,
		Compress:       s.Compress,
	}
	if s.WorkerCmd != "" {
		cfg.Cmd = strings.Fields(s.WorkerCmd)
	}
	return cfg, cfg.Enabled(), nil
}

// dialBatch dials the session one SimulateBatch-style call runs on,
// closed by the caller once the batch settles. It is nil — run
// in-process — when the settings name no fleet, when a Hosts entry is
// malformed, when no job has a wire form, or when no worker is
// reachable; each failure is one warning (and, for the dial, one
// rv_dist_fallbacks_total count). The session is no wider than the
// batch's unique wire-formed jobs: a wider fleet only adds workers
// that pay spawn and handshake cost and never claim a job.
func dialBatch(jobs []batch.Job, s Settings) *dist.Fleet {
	cfg, ok, err := distConfig(s)
	if err != nil {
		mSettingsFallbacks.Inc()
		slog.Warn("rendezvous: malformed distribution settings; running in-process",
			"err", err, "hosts", s.Hosts)
		return nil
	}
	if !ok {
		return nil
	}
	_, uniq := batch.Dedup(len(jobs), func(i int) any { return jobs[i].Key })
	remote := 0
	for _, i := range uniq {
		if jobs[i].Wire != nil {
			remote++
		}
	}
	if remote == 0 {
		return nil
	}
	cfg.Procs = min(cfg.Procs, remote)
	cfg.Hosts = cfg.Hosts[:min(len(cfg.Hosts), remote)]
	f, err := dist.Dial(cfg)
	if err != nil {
		slog.Warn("rendezvous: distributed batch failed; falling back to in-process",
			"err", err, "hosts", s.Hosts, "procs", s.WorkerProcs)
		return nil
	}
	return f
}

// SimulateBatch runs every instance under the algorithm on a pool of
// s.Parallelism workers (0 or negative selects GOMAXPROCS) and returns
// the results in input order. When s.Hosts or s.WorkerProcs request a
// worker fleet, execution is distributed across those worker processes
// instead (see internal/dist and cmd/rvworker); if the fleet cannot be
// reached or fails mid-run the batch transparently falls back to
// in-process execution, which purity makes invisible in the output (a
// warning lands on stderr).
//
// Determinism guarantee: the returned slice is byte-identical to
// calling Simulate(ins[i], alg, s) serially for each i, regardless of
// worker count, process count, or host fleet — scheduling changes
// wall-clock time and nothing else.
//
// Duplicate instances are memoized: within one call, each distinct
// instance is simulated once and its result shared (simulation is a
// pure function of the instance, the algorithm, and the settings, so
// sharing is invisible in the output — sweeps that revisit parameter
// points simply finish sooner). Memoized duplicates never execute, so
// an Algorithm whose Program factory wires per-job observers (e.g. a
// core.Progress per job) would see them fire only for the first
// occurrence — set Settings.NoBatchMemoize to run every job.
func SimulateBatch(ins []Instance, alg Algorithm, s Settings) []Result {
	start := batchStart()
	jobs := batchJobs(ins, alg, s)
	f := dialBatch(jobs, s)
	res, _ := f.RunOrFallback(jobs, s.Parallelism)
	f.Close()
	recordBatch(len(ins), start)
	return res
}

// SimulateBatchStream is SimulateBatch with ordered streaming delivery:
// the returned channel yields the results in input order — result i is
// sent as soon as jobs 0..i have all completed — and is closed after
// the last one. The sequence of delivered results is byte-identical to
// SimulateBatch's slice; streaming only changes when a consumer gets to
// see each entry, which lets sweeps emit their first rows while the
// slow tail of the batch is still running. The channel is buffered to
// len(ins), so an abandoned stream leaks nothing.
//
// Distribution (s.Hosts / s.WorkerProcs) applies as in SimulateBatch;
// a mid-run fleet failure falls back to in-process execution for the
// undelivered suffix, seamlessly — determinism makes the splice exact.
func SimulateBatchStream(ins []Instance, alg Algorithm, s Settings) <-chan Result {
	mBatches.Inc()
	mSims.Add(uint64(len(ins)))
	jobs := batchJobs(ins, alg, s)
	f := dialBatch(jobs, s)
	if f == nil {
		return f.StreamOrFallback(jobs, s.Parallelism)
	}
	// Relay through a channel of our own so the session closes before
	// the consumer sees the stream end.
	out := make(chan Result, len(ins))
	go func() {
		defer close(out)
		defer f.Close()
		for r := range f.StreamOrFallback(jobs, s.Parallelism) {
			out <- r
		}
	}()
	return out
}

// Fleet is a persistent worker session for batch simulation: dial the
// fleet a Settings value names once (DialFleet), run any number of
// SimulateBatch / SimulateBatchStream calls over the open connections,
// and Close once — one dial and one protocol handshake per host for
// the whole session instead of one per batch. The session is
// multi-tenant: concurrent calls from different goroutines share the
// workers through one scheduler, each call keeping its own result
// space (DESIGN.md §13). Session reuse, tenancy, and live membership
// (AddHost / Retire / WatchHosts) are all pure scheduling: every batch
// remains byte-identical to the in-process serial run, exactly as for
// the one-shot entry points.
type Fleet struct {
	f *dist.Fleet
}

// DialFleet assembles the worker fleet the settings name (Hosts — with
// optional host:port*pool hints — and/or WorkerProcs) and returns the
// open session. It fails when the settings name no fleet, a Hosts
// entry is malformed, or no worker is reachable.
func DialFleet(s Settings) (*Fleet, error) {
	cfg, ok, err := distConfig(s)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errors.New("rendezvous: settings name no worker fleet (set Hosts or WorkerProcs)")
	}
	df, err := dist.Dial(cfg)
	if err != nil {
		return nil, err
	}
	return &Fleet{f: df}, nil
}

// SimulateBatch is the package-level SimulateBatch over the session's
// fleet: identical results (the determinism guarantee), amortized
// connection setup. The distribution knobs of s (Hosts, WorkerProcs,
// Window, …) are ignored here — the session fixed them at dial time.
func (f *Fleet) SimulateBatch(ins []Instance, alg Algorithm, s Settings) []Result {
	start := batchStart()
	res, _ := f.f.RunOrFallback(batchJobs(ins, alg, s), s.Parallelism)
	recordBatch(len(ins), start)
	return res
}

// SimulateBatchStream is the package-level SimulateBatchStream over
// the session's fleet.
func (f *Fleet) SimulateBatchStream(ins []Instance, alg Algorithm, s Settings) <-chan Result {
	mBatches.Inc()
	mSims.Add(uint64(len(ins)))
	return f.f.StreamOrFallback(batchJobs(ins, alg, s), s.Parallelism)
}

// Snapshot reports the session's flight-recorder state: per-slot
// dispatch status (liveness, breaker, adaptive window) with each live
// worker's own counters freshly probed over the wire, plus the
// process-wide metrics registry. Observation only — the probe rides
// the liveness ping machinery and perturbs no batch.
func (f *Fleet) Snapshot() dist.FleetSnapshot { return f.f.Snapshot() }

// AddHost dials one "host:port" (optionally "host:port*pool") TCP
// worker endpoint and adds it to the running session; its connection
// starts serving live batches immediately. Adding an address that
// already has an active slot is an error.
func (f *Fleet) AddHost(addr string) error {
	hosts, err := dist.ParseHosts(addr)
	if err != nil {
		return err
	}
	if len(hosts) != 1 {
		return errors.New("rendezvous: AddHost takes exactly one host address")
	}
	return f.f.AddHost(hosts[0])
}

// Retire drains the worker at addr out of the session: in-flight jobs
// requeue to the remaining workers and the slot leaves service. It
// blocks until the drain completes.
func (f *Fleet) Retire(addr string) error { return f.f.Retire(addr) }

// WatchHosts keeps the session's TCP membership reconciled against a
// hosts file (ParseHosts syntax, newline- or comma-separated, '#'
// comments), polling every interval (0 selects 2s). Call the returned
// stop function before Close.
func (f *Fleet) WatchHosts(path string, interval time.Duration) (stop func(), err error) {
	return f.f.WatchHosts(path, interval)
}

// Close ends the session, closing every worker connection. Any still-
// running batches are stranded with an error (their OrFallback
// variants then finish in-process). Closing twice is a no-op.
func (f *Fleet) Close() error { return f.f.Close() }

// SimulateRadii runs the Section 5 extension with distinct sight radii.
func SimulateRadii(in Instance, alg Algorithm, rA, rB float64, s Settings) Result {
	a := sim.AgentSpec{Attrs: in.AgentA(), Prog: alg.Program(in), Radius: rA}
	b := sim.AgentSpec{Attrs: in.AgentB(), Prog: alg.Program(in), Radius: rB}
	return sim.Run(a, b, s)
}

// PredictPhase derives the phase of Algorithm 1 by whose end rendezvous
// is guaranteed for the instance (Lemmas 3.2–3.5 instantiated with this
// implementation's block durations).
func PredictPhase(in Instance, s Schedule) (core.Prediction, bool) {
	return core.PredictPhase(in, s)
}
