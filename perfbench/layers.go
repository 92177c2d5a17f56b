package main

import (
	"runtime"
	"time"

	"repro/internal/cgkk"
	"repro/internal/dd"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/inst"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/wire"
)

// layerInputs are what the traced run's layer probes work on.
type layerInputs struct {
	replay []replayJob // serial sim.Run replay behind the sim.* metrics and kernel operands
	stream *stream     // the ledger's job set; nil builds one from the seed
}

// replayJob is one simulation the sim.* metrics replay serially.
type replayJob struct {
	in   inst.Instance
	prog func() prog.Program
	set  sim.Settings
}

// tableReplay is where paper-tables time goes: budget-exhausting runs.
// One out-of-contract T3 cell (CGKK on the S1 boundary) and the T1
// infeasible-shift class under AURV, at the miss budget.
func tableReplay(ref *tableRef, budget int) []replayJob {
	s := sim.DefaultSettings()
	s.MaxSegments = budget
	var jobs []replayJob
	for _, in := range ref.replayS1 {
		jobs = append(jobs, replayJob{in, func() prog.Program { return cgkk.Program(cgkk.Compact()) }, s})
	}
	for _, in := range ref.replayShift {
		jobs = append(jobs, replayJob{in, aurvProgram, s})
	}
	return jobs
}

// streamReplay is every distinct instance of the stream under AURV.
func streamReplay(st *stream) []replayJob {
	jobs := make([]replayJob, len(st.pool))
	for i, in := range st.pool {
		jobs[i] = replayJob{in, aurvProgram, meetSettings()}
	}
	return jobs
}

func (j replayJob) run() sim.Result {
	return sim.Run(
		sim.AgentSpec{Attrs: j.in.AgentA(), Prog: j.prog(), Radius: j.in.R},
		sim.AgentSpec{Attrs: j.in.AgentB(), Prog: j.prog(), Radius: j.in.R}, j.set)
}

// tracedRun is the per-layer run: one untraced and one traced pass of
// the workload (their wall-time difference is the tracing overhead),
// then timed calls into each layer's public functions.
func tracedRun(p params, tr *tracer, r *result, pass func(tr *tracer) (wall float64, text string), in layerInputs) {
	untraced, text := pass(nil)
	before := obs.TakeSnapshot()
	traced, tracedText := pass(tr)
	after := obs.TakeSnapshot()
	r.check(text == tracedText, "traced pass rendered different artifacts than the untraced pass")
	r.add("trace.untraced_s", untraced, "s")
	r.add("trace.traced_s", traced, "s")
	r.add("trace.overhead_s", traced-untraced, "s")

	jobs := counter(after, "rv_batch_jobs_total") - counter(before, "rv_batch_jobs_total")
	executed := counter(after, "rv_batch_executed_total") - counter(before, "rv_batch_executed_total")
	r.add("batch.jobs", jobs, "count")
	r.add("batch.executed", executed, "count")
	memo := 0.0
	if jobs > 0 {
		memo = (jobs - executed) / jobs
	}
	r.add("batch.memo_hit_ratio", memo, "share")

	if tr.total("exps.T1") == 0 {
		// The workload pass did not run the tables: time them here.
		arts := artifacts(p.tables)
		order := make([]int, len(arts))
		for i := range order {
			order[i] = i
		}
		runTablePass(arts, order, newTableRef(p.tables), r, tr)
	}
	for _, name := range []string{"T1", "T2", "T3", "T4", "T5", "T6", "figures"} {
		r.add("exps."+name+"_s", tr.total("exps."+name), "s")
	}

	simLayer(r, in.replay)
	kernelLayer(r, newKernelOperands(in.replay[:min(len(in.replay), 64)], 256))
	progLayer(r)
	measureLayer(r, p.seed)
	st := in.stream
	if st == nil {
		st = newStream(p.stream, p.seed)
	}
	wireLayer(r, st)
	ledgerLayer(r, st)

	r.add("fleet.leaks", float64(r.leaks), "count")
	r.add("ops_failed_share", float64(r.failed)/float64(max(r.attempted, 1)), "share")
}

// simLayer replays the jobs serially through sim.Run: time per run and
// per segment, and why each run stopped.
func simLayer(r *result, jobs []replayJob) {
	var (
		durs                []float64
		busy                float64
		segments, exhausted int
		stops               [4]int
	)
	for _, j := range jobs {
		t0 := time.Now()
		res := j.run()
		d := time.Since(t0).Seconds()
		durs = append(durs, d*1e6)
		busy += d
		segments += res.Segments
		stops[res.Reason]++
		if res.Reason == sim.ReasonMaxSegments {
			exhausted += res.Segments
		}
	}
	t, pct := tail(durs)
	r.add("sim.runs", float64(len(jobs)), "count")
	r.add("sim.segments", float64(segments), "count")
	r.add("sim.ns_per_segment", busy*1e9/float64(max(segments, 1)), "ns")
	r.add("sim.run_us_p50", nearestRank(sortedCopy(durs), 50), "us")
	r.add("sim.run_us_tail", t, "us")
	r.add("sim.stop_met", float64(stops[sim.ReasonMet]), "count")
	r.add("sim.stop_max_segments", float64(stops[sim.ReasonMaxSegments]), "count")
	r.add("sim.stop_programs_ended", float64(stops[sim.ReasonProgramsEnded]), "count")
	r.add("sim.stop_max_time", float64(stops[sim.ReasonMaxTime]), "count")
	r.add("sim.budget_segments_share", float64(exhausted)/float64(max(segments, 1)), "share")
	note("sim.run_us_tail is p%g of %d runs", pct, len(durs))
}

// kernelOperands are arguments of the geometry, physics and dd kernels
// as the segment loop sees them: consecutive segments of both agents of
// the replayed instances, paired in order.
type kernelOperands struct {
	a, b    []geom.Moving
	horizon []float64
	radius  []float64
	attrs   []phys.Attributes
	theta   []float64
	t, dt   []dd.T
}

// segment is one instruction of an agent turned into absolute motion.
type segment struct {
	m     geom.Moving
	dur   float64
	theta float64
	start dd.T
}

// segmentsOf walks the first n instructions of an agent's program.
func segmentsOf(a phys.Attributes, p prog.Program, n int) []segment {
	cur := prog.NewCursor(p)
	defer cur.Close()
	var out []segment
	pos, t := a.Origin, dd.FromFloat(a.Wake)
	for len(out) < n {
		ins, ok := cur.Next()
		if !ok {
			break
		}
		var v geom.Vec2
		dur := a.WaitDuration(ins.Amount)
		if ins.Op == prog.OpMove {
			v, dur = a.AbsVelocity(ins.Theta), a.MoveDuration(ins.Amount)
		}
		out = append(out, segment{geom.Moving{P: pos, V: v}, dur, ins.Theta, t})
		pos, t = pos.Add(v.Scale(dur)), t.AddFloat(dur)
	}
	return out
}

func newKernelOperands(jobs []replayJob, perJob int) kernelOperands {
	var ops kernelOperands
	for _, j := range jobs {
		b := j.in.AgentB()
		sa, sb := segmentsOf(j.in.AgentA(), j.prog(), perJob), segmentsOf(b, j.prog(), perJob)
		for k := range min(len(sa), len(sb)) {
			ops.a = append(ops.a, sa[k].m)
			ops.b = append(ops.b, sb[k].m)
			ops.horizon = append(ops.horizon, min(sa[k].dur, sb[k].dur))
			ops.radius = append(ops.radius, j.in.R)
			ops.attrs = append(ops.attrs, b)
			ops.theta = append(ops.theta, sb[k].theta)
			ops.t = append(ops.t, sa[k].start)
			ops.dt = append(ops.dt, dd.FromFloat(sb[k].dur))
		}
	}
	return ops
}

// sink keeps kernel results live so the timed calls are not optimized
// away.
var sink float64

// nsPerCall times n calls of fn(i).
func nsPerCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// timeCall adds a kernel's ns per call and exact allocations per call.
func timeCall(r *result, name string, n int, fn func(i int)) {
	r.add(name+"_ns", nsPerCall(n, fn), "ns")
	i := 0
	r.add(name+".allocs_per_call", allocsPer(1000, func() { fn(i); i++ }), "count")
}

func kernelLayer(r *result, ops kernelOperands) {
	n := len(ops.a)
	const calls = 1 << 21
	timeCall(r, "geom.closest_approach", calls, func(i int) {
		i %= n
		sink += geom.ClosestApproach(ops.a[i], ops.b[i], ops.horizon[i]).DMin
	})
	timeCall(r, "geom.first_within", calls, func(i int) {
		i %= n
		s, _ := geom.FirstWithin(ops.a[i], ops.b[i], ops.horizon[i], ops.radius[i])
		sink += s
	})
	timeCall(r, "phys.dir_abs", calls, func(i int) {
		i %= n
		sink += ops.attrs[i].DirAbs(ops.theta[i]).X
	})
	timeCall(r, "dd.add", calls, func(i int) {
		i %= n
		sink += ops.t[i].Add(ops.dt[i]).Lo
	})
}

// progLayer times draining the AURV cursor and building the program a
// simulation starts from.
func progLayer(r *result) {
	const instrs = 1 << 20
	cur := prog.NewCursor(aurvProgram())
	r.add("prog.ns_per_instr", nsPerCall(instrs, func(int) {
		ins, _ := cur.Next()
		sink += ins.Amount
	}), "ns")
	cur.Close()
	cur = prog.NewCursor(aurvProgram())
	r.add("prog.next.allocs_per_call", allocsPer(instrs/16, func() {
		ins, _ := cur.Next()
		sink += ins.Amount
	}), "count")
	cur.Close()
	timeCall(r, "core.program_build", 1<<16, func(int) {
		c := prog.NewCursor(aurvProgram())
		c.Close()
	})
}

// measureLayer times one chunk of the T5 Monte-Carlo sweep.
func measureLayer(r *result, seed int64) {
	n := measure.SweepChunk
	t0 := time.Now()
	s := measure.Sweep(n, []float64{0.25, 0.35, 0.5}, measure.DefaultBox(), seed)
	r.add("measure.sweep_ns_per_sample", float64(time.Since(t0).Nanoseconds())/float64(n), "ns")
	sink += s.FeasibleShare
}

// wireLayer times the codec on the jobs and results the fleet ships,
// and checks that every result survives the round trip.
func wireLayer(r *result, st *stream) {
	const k = 64
	jobs := make([]wire.Job, k)
	encoded := make([][]byte, k)
	jobBytes, resultBytes := 0, 0
	for i := range jobs {
		jobs[i] = wire.Job{In: st.pool[i], Alg: dist.AlgAURVCompact, Set: fleetSettings()}
		jobBytes += len(wire.EncodeJob(jobs[i]))
		encoded[i] = wire.EncodeResult(st.ref[i])
		resultBytes += len(encoded[i])
		got, err := wire.DecodeResult(encoded[i])
		r.check(err == nil && sameResult(got, st.ref[i]), "wire round trip of result %d: %v", i, err)
	}
	timeCall(r, "wire.encode_job", 1<<16, func(i int) {
		sink += float64(len(wire.EncodeJob(jobs[i%k])))
	})
	timeCall(r, "wire.decode_result", 1<<16, func(i int) {
		res, _ := wire.DecodeResult(encoded[i%k])
		sink += res.MinGap
	})
	r.add("wire.job_bytes", float64(jobBytes)/k, "B")
	r.add("wire.result_bytes", float64(resultBytes)/k, "B")
}

// ledgerSize is the ledger's job count (distinct stream instances) and
// ledgerBatch its batch size: 16-sim batches, small enough that the
// per-job dispatch cost shows next to the simulation cost.
const (
	ledgerSize  = 1536
	ledgerBatch = 16
)

// ledgerLayer runs one fixed job set at three steps — serial sim.Run,
// the in-process batch pool, and a stdio fleet session — in the same
// batches, and reports ns per sim at each step and the deltas between
// neighbouring steps: the dispatch-versus-compute split.
func ledgerLayer(r *result, st *stream) {
	n := min(ledgerSize, len(st.pool)) / ledgerBatch * ledgerBatch
	ins, ref := st.pool[:n], st.ref[:n]
	steps := func(name string, call simulateFunc) float64 {
		t0 := time.Now()
		for first := 0; first < n; first += ledgerBatch {
			verify(r, "ledger "+name, call(ins[first:first+ledgerBatch]),
				func(k int) sim.Result { return ref[first+k] })
		}
		return time.Since(t0).Seconds()
	}

	busy := 0.0
	serial := steps("sim", func(batch []inst.Instance) []sim.Result {
		out := make([]sim.Result, len(batch))
		for i, in := range batch {
			t0 := time.Now()
			out[i] = runAURV(in, meetSettings())
			busy += time.Since(t0).Seconds()
		}
		return out
	})
	pooled := steps("batch", inProcess())

	ss, err := dialSession()
	if err != nil {
		r.check(false, "ledger: %v", err)
		return
	}
	before := ss.f.Snapshot()
	fleet := steps("dist", ss.call())
	after := ss.f.Snapshot()
	ss.close(r)
	d := readDistCounters(after.Metrics).minus(readDistCounters(before.Metrics))
	sessionFailures(r, d, workerErrors(after)-workerErrors(before), ledgerBatch)

	perSim := func(s float64) float64 { return s * 1e9 / float64(n) }
	r.add("ledger.sim_ns_per_sim", perSim(serial), "ns")
	r.add("ledger.batch_ns_per_sim", perSim(pooled), "ns")
	r.add("ledger.dist_ns_per_sim", perSim(fleet), "ns")
	r.add("ledger.batch_minus_sim_ns", perSim(pooled-serial), "ns")
	r.add("ledger.dist_minus_batch_ns", perSim(fleet-pooled), "ns")
	r.add("pool.efficiency", busy/(pooled*float64(runtime.GOMAXPROCS(0))), "share")
	r.add("dist.dispatch_us_per_sim", perSim(fleet-pooled)/1e3, "us")
	r.add("wire.tx_bytes_per_sim", d.tx/float64(n), "B")
	r.add("wire.rx_bytes_per_sim", d.rx/float64(n), "B")
	r.add("dist.requeued", d.requeued, "count")
	r.add("dist.worker_deaths", d.deaths, "count")
	r.add("dist.quarantined", d.quarantined, "count")
	r.add("dist.fallbacks", d.fallbacks, "count")
	var window, rtt float64
	live := 0
	for _, s := range after.Slots {
		if s.Live {
			window += float64(s.Window)
			rtt += s.RTT
			live++
		}
	}
	r.add("dist.window_mean", window/float64(max(live, 1)), "count")
	r.add("dist.rtt_ms", rtt*1e3/float64(max(live, 1)), "ms")
}
