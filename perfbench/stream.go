package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exps"
	"repro/internal/inst"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/rendezvous"
)

// streamParams sizes the job stream of meet-batch and the ledger.
type streamParams struct {
	pool  int // distinct instances in one pass
	fresh int // distinct instances per block of the stream
	dups  int // duplicates of those instances added to each block
	batch int // jobs per SimulateBatch call (whole blocks)
}

// defaultStreamParams: 3072 distinct T2-type instances per pass, each
// block of 16 jobs holding 12 of them plus 4 duplicates (a 25% share the
// batch memo can absorb), sent as 256-job batches. Every batch ends in a
// barrier that waits on the slowest job and wakes idle CPUs; on a shared
// 2-core host, runs of 64-job batches spread twice as much from run to
// run as runs of 256-job batches interleaved with them.
func defaultStreamParams() streamParams {
	return streamParams{pool: 3072, fresh: 12, dups: 4, batch: 256}
}

// streamClasses are the T2-type classes the stream draws from: every
// instance is covered by AURV, so every job meets (Theorem 3.2).
var streamClasses = []inst.Class{
	inst.ClassMirrorInterior, inst.ClassLatecomer, inst.ClassClockDrift,
	inst.ClassSpeedOnly, inst.ClassRotatedDelayed,
}

// poolSeed fixes the distinct instances (T2's generator seed under
// rvtable defaults), how they are grouped into batches and the job
// order within each batch. Simulation cost per instance is heavy-tailed
// — the median job takes about 15 segments, a few take 10^5 — so a pool
// drawn per seed changed the work of a pass by tens of percent from
// seed to seed, and regrouping or reordering the heavy jobs per seed
// moved the slowest batches by as much (the pool's workers claim jobs
// in order, so where a heavy job sits sets its batch's makespan). The
// workload seed instead orders the batches of a pass, so every seed
// sends the same batches, in a different order.
const poolSeed = 2

// stream is one pass of jobs plus the serial reference result of each.
type stream struct {
	pool []inst.Instance
	ref  []sim.Result // per pool instance
	idx  []int        // pool index of each job, in stream order
	ins  []inst.Instance
	p    streamParams
}

// meetSettings bounds every stream job at the T2 meet budget.
func meetSettings() sim.Settings {
	s := sim.DefaultSettings()
	s.MaxSegments = exps.DefaultBudgets().MeetSegments
	return s
}

func aurvProgram() prog.Program { return core.Program(core.Compact(), nil) }

// newStream draws the pool, arranges the pass from the seed, and runs
// the serial reference with sim.Run directly (not through the facade
// the workloads measure).
func newStream(p streamParams, seed int64) *stream {
	st := &stream{p: p}
	g := inst.NewGen(poolSeed)
	for i := 0; i < p.pool; i++ {
		st.pool = append(st.pool, g.Draw(streamClasses[i%len(streamClasses)]))
	}
	st.ref = make([]sim.Result, p.pool)
	for i, in := range st.pool {
		st.ref[i] = runAURV(in, meetSettings())
	}
	fixed := rand.New(rand.NewSource(poolSeed))
	perm := fixed.Perm(p.pool)
	var idx []int
	for b := 0; b+p.fresh <= p.pool; b += p.fresh {
		block := append([]int(nil), perm[b:b+p.fresh]...)
		for d := 0; d < p.dups; d++ {
			block = append(block, block[fixed.Intn(p.fresh)])
		}
		idx = append(idx, block...)
	}
	batches := len(idx) / p.batch
	for b := 0; b < batches; b++ {
		batch := idx[b*p.batch : (b+1)*p.batch]
		fixed.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	}
	for _, b := range rand.New(rand.NewSource(seed)).Perm(batches) {
		st.idx = append(st.idx, idx[b*p.batch:(b+1)*p.batch]...)
	}
	for _, i := range st.idx {
		st.ins = append(st.ins, st.pool[i])
	}
	return st
}

func runAURV(in inst.Instance, s sim.Settings) sim.Result {
	return sim.Run(
		sim.AgentSpec{Attrs: in.AgentA(), Prog: aurvProgram(), Radius: in.R},
		sim.AgentSpec{Attrs: in.AgentB(), Prog: aurvProgram(), Radius: in.R}, s)
}

// sameResult compares every field of two results bit for bit.
func sameResult(a, b sim.Result) bool {
	return a.Met == b.Met && a.Reason == b.Reason && a.MeetTime == b.MeetTime &&
		math.Float64bits(a.MinGap) == math.Float64bits(b.MinGap) &&
		a.MinGapTime == b.MinGapTime && a.EndA == b.EndA && a.EndB == b.EndB &&
		a.Segments == b.Segments && a.EndTime == b.EndTime &&
		len(a.TraceA) == len(b.TraceA) && len(a.TraceB) == len(b.TraceB)
}

// verify checks results against their references, one operation per
// job; want(k) is the reference of got[k].
func verify(r *result, what string, got []sim.Result, want func(k int) sim.Result) {
	r.attempted += len(got)
	for k, res := range got {
		if ref := want(k); !sameResult(res, ref) {
			r.failed++
			note("check failed: %s job %d: got %v, reference %v", what, k, res, ref)
		}
	}
}

// simulateFunc runs one batch through the path a workload measures.
type simulateFunc func(ins []inst.Instance) []sim.Result

// pass sends the pass as consecutive batches, one at a time (a closed
// loop of one caller), and returns each batch's duration. With a tracer
// it records a span per batch.
func (st *stream) pass(call simulateFunc, r *result, tr *tracer, durs []float64) []float64 {
	size := st.p.batch
	for first := 0; first+size <= len(st.ins); first += size {
		span := tr.start()
		t0 := time.Now()
		got := call(st.ins[first : first+size])
		durs = append(durs, time.Since(t0).Seconds())
		tr.end("batch", span)
		verify(r, "stream", got, func(k int) sim.Result { return st.ref[st.idx[first+k]] })
	}
	return durs
}

// latencyPasses is how many passes of a meet-batch run the latency
// metrics sample: 960 batches, so the tail is p95 with 48 batches
// beyond it. A run of run_seconds 45 completes about 350 passes here;
// p99 over all of them sat in the top 4% of the four batches that hold
// the pool's heaviest jobs and jumped by 40% whenever the host had a
// bad minute, against 12% for wall_s.
const latencyPasses = 60

// measureStream repeats passes for the run's seconds and adds the
// end-to-end metrics. Throughput is a pass's jobs over the median pass
// time, so a burst of host contention during a few passes moves it no
// more than it moves wall_s.
func measureStream(p params, st *stream, call simulateFunc, r *result, set *setups) {
	var walls, durs []float64
	var allocs uint64
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < p.seconds {
		before, m0 := len(durs), mallocs()
		durs = st.pass(call, r, nil, durs)
		allocs += mallocs() - m0
		walls = append(walls, sum(durs[before:]))
		set.due(time.Since(start).Seconds() / p.seconds)
	}
	set.due(1)
	jobs := len(durs) / len(walls) * st.p.batch
	wall := median(walls)
	r.add("wall_s", wall, "s")
	r.add("sims_per_s", float64(jobs)/wall, "1/s")
	r.latencyMetrics(fmt.Sprintf("%d-job batches", st.p.batch), latencySample(durs, len(durs)/len(walls), latencyPasses))
	r.add("setup_s", set.median(), "s")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	r.add("allocs_per_sim", float64(allocs)/float64(len(durs)*st.p.batch), "count")
	note("%d passes of %d jobs", len(walls), jobs)
}

// inProcess is the meet-batch path: the facade's SimulateBatch on the
// in-process pool (GOMAXPROCS workers, memoization on).
func inProcess() simulateFunc {
	alg, s := rendezvous.AlmostUniversalRV(), meetSettings()
	return func(ins []inst.Instance) []sim.Result { return rendezvous.SimulateBatch(ins, alg, s) }
}

func runMeetBatch(p params, tr *tracer) result {
	var st *stream
	set := newSetups(func() { st = newStream(p.stream, p.seed) })
	return meetBatch(p, tr, st, set)
}

// meetBatch measures the in-process path on a prepared stream.
func meetBatch(p params, tr *tracer, st *stream, set *setups) result {
	var r result
	call := inProcess()
	if p.trace {
		tracedRun(p, tr, &r, func(tr *tracer) (float64, string) {
			return sum(st.pass(call, &r, tr, nil)), ""
		}, layerInputs{stream: st, replay: streamReplay(st)})
	} else {
		measureStream(p, st, call, &r, set)
	}
	return r
}

// fleetSettings names the ledger's fleet: one stdio worker
// subprocess per CPU, each executing one job at a time, so the workers'
// simulation goroutines never outnumber the CPUs.
func fleetSettings() sim.Settings {
	s := meetSettings()
	s.WorkerProcs = runtime.NumCPU()
	s.Parallelism = 1
	return s
}

// session is an open fleet plus what its hygiene check needs.
type session struct {
	f        *rendezvous.Fleet
	baseline int // goroutines before the dial
}

func dialSession() (*session, error) {
	base := runtime.NumGoroutine()
	f, err := rendezvous.DialFleet(fleetSettings())
	if err != nil {
		return nil, fmt.Errorf("dialing fleet: %w", err)
	}
	return &session{f: f, baseline: base}, nil
}

func (ss *session) call() simulateFunc {
	alg, s := rendezvous.AlmostUniversalRV(), fleetSettings()
	return func(ins []inst.Instance) []sim.Result { return ss.f.SimulateBatch(ins, alg, s) }
}

// close ends the session and checks that nothing outlived it: a leaked
// goroutine or worker process is a failed operation.
func (ss *session) close(r *result) {
	ss.f.Close()
	leaks := hygiene(ss.baseline)
	r.check(leaks == 0, "fleet close left %d leaks", leaks)
	r.leaks += leaks
}

// distCounters are the dispatch layer's failure counters, summed over
// slots.
type distCounters struct {
	fallbacks, quarantined, requeued, deaths, tx, rx float64
}

func readDistCounters(snap obs.Snapshot) distCounters {
	return distCounters{
		fallbacks:   counter(snap, "rv_dist_fallbacks_total"),
		quarantined: counter(snap, "rv_dist_quarantined_total"),
		requeued:    counter(snap, "rv_dist_requeued_total"),
		deaths:      counter(snap, "rv_dist_worker_deaths_total"),
		tx:          counter(snap, "rv_wire_tx_bytes_total"),
		rx:          counter(snap, "rv_wire_rx_bytes_total"),
	}
}

func (a distCounters) minus(b distCounters) distCounters {
	return distCounters{a.fallbacks - b.fallbacks, a.quarantined - b.quarantined,
		a.requeued - b.requeued, a.deaths - b.deaths, a.tx - b.tx, a.rx - b.rx}
}

// counter sums a counter family over its labels.
func counter(snap obs.Snapshot, name string) float64 {
	sum := 0.0
	for _, c := range snap.Counters {
		if c.Name == name {
			sum += c.Value
		}
	}
	return sum
}

// sessionFailures counts the jobs of a session that did not complete on
// the fleet: batches that fell back in-process (every job of them),
// quarantined jobs, and error replies from workers.
func sessionFailures(r *result, d distCounters, workerErrors float64, batch int) {
	bad := int(d.fallbacks)*batch + int(d.quarantined) + int(workerErrors)
	if bad > 0 {
		note("check failed: fleet session: %g fallbacks, %g quarantined, %g worker errors",
			d.fallbacks, d.quarantined, workerErrors)
		r.failed = min(r.failed+bad, r.attempted)
	}
}

func workerErrors(snap dist.FleetSnapshot) float64 {
	sum := 0.0
	for _, s := range snap.Slots {
		if s.Worker != nil {
			sum += float64(s.Worker.Errors)
		}
	}
	return sum
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
