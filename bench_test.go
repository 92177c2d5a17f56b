// Package repro_test is the benchmark harness of the reproduction: one
// benchmark per experiment table (T1–T6) and figure (F1–F5) — each
// regenerates the artifact under `go test -bench` — plus kernel
// micro-benchmarks and the scaling/ablation sweeps called out in
// DESIGN.md §4.
package repro_test

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/cgkk"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dist"
	"repro/internal/exps"
	"repro/internal/geom"
	"repro/internal/inst"
	"repro/internal/measure"
	"repro/internal/phys"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/walk"
	"repro/internal/wire"
	"repro/rendezvous"
)

// TestMain lets the bench binary serve as its own distributed-worker
// fleet: the coordinator's default WorkerCmd re-executes the current
// executable, and MaybeServeStdio diverts that copy into the worker
// loop (see BenchmarkDistT2Procs*).
func TestMain(m *testing.M) {
	dist.MaybeServeStdio()
	os.Exit(m.Run())
}

// quickBudgets keeps table regeneration fast enough for benchmarking.
func quickBudgets() exps.Budgets {
	return exps.Budgets{MeetSegments: 120_000_000, MissSegments: 500_000}
}

// ---- Table benchmarks: each iteration regenerates the table. ----

func BenchmarkT1Feasibility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exps.T1(1, 2, quickBudgets())
	}
}

func BenchmarkT6Boundary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exps.T6(6, quickBudgets())
	}
}

// benchT2Type runs the T2 kernel: Algorithm 1 on four instances of
// the class until they meet.
func benchT2Type(b *testing.B, c inst.Class) {
	g := inst.NewGen(11)
	ins := g.DrawN(c, 4)
	set := sim.DefaultSettings()
	set.MaxSegments = 120_000_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			a := sim.AgentSpec{Attrs: in.AgentA(), Prog: core.Program(core.Compact(), nil), Radius: in.R}
			bb := sim.AgentSpec{Attrs: in.AgentB(), Prog: core.Program(core.Compact(), nil), Radius: in.R}
			if res := sim.Run(a, bb, set); !res.Met {
				b.Fatalf("instance failed to meet: %v", in)
			}
		}
	}
}

func BenchmarkT2Type1Mirror(b *testing.B)     { benchT2Type(b, inst.ClassMirrorInterior) }
func BenchmarkT2Type2Latecomer(b *testing.B)  { benchT2Type(b, inst.ClassLatecomer) }
func BenchmarkT2Type3ClockDrift(b *testing.B) { benchT2Type(b, inst.ClassClockDrift) }
func BenchmarkT2Type4Rotated(b *testing.B)    { benchT2Type(b, inst.ClassRotatedDelayed) }

func BenchmarkT3Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exps.T3(3, 1, quickBudgets())
	}
}

func BenchmarkT4Boundary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exps.T4(4, quickBudgets())
	}
}

func BenchmarkT5Measure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exps.T5(200_000, 5, exps.Budgets{Workers: 1})
	}
}

// ---- Batch benchmarks: T2-style workload at 1/2/N workers. ----
// The figure of merit is wall-clock scaling: the same job list, the
// same (byte-identical) results, fewer seconds.

// batchT2Instances draws the T2-style workload: one batch spanning all
// four instance types.
func batchT2Instances() []rendezvous.Instance {
	g := inst.NewGen(11)
	var ins []rendezvous.Instance
	for _, c := range []inst.Class{
		inst.ClassMirrorInterior, inst.ClassLatecomer,
		inst.ClassClockDrift, inst.ClassRotatedDelayed,
	} {
		ins = append(ins, g.DrawN(c, 4)...)
	}
	return ins
}

func benchBatchT2(b *testing.B, workers int) {
	ins := batchT2Instances()
	set := rendezvous.DefaultSettings()
	set.MaxSegments = 120_000_000
	set.Parallelism = workers
	alg := rendezvous.AlmostUniversalRV()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, res := range rendezvous.SimulateBatch(ins, alg, set) {
			if !res.Met {
				b.Fatalf("instance %d failed to meet: %v", j, ins[j])
			}
		}
	}
	b.ReportMetric(float64(len(ins)*b.N)/b.Elapsed().Seconds(), "sims/s")
}

func BenchmarkBatchT2Workers1(b *testing.B) { benchBatchT2(b, 1) }
func BenchmarkBatchT2Workers2(b *testing.B) { benchBatchT2(b, 2) }
func BenchmarkBatchT2Workers4(b *testing.B) { benchBatchT2(b, 4) }
func BenchmarkBatchT2WorkersMax(b *testing.B) {
	benchBatchT2(b, runtime.GOMAXPROCS(0))
}

// benchDistT2 runs the same T2 batch through the distributed engine
// with `procs` local worker subprocesses (spawned fresh per iteration:
// the measured figure includes the fleet's spawn/handshake cost, which
// is the realistic per-batch overhead of going multi-process). Results
// are byte-identical to the in-process benchmarks above; on a
// single-CPU host the scaling benefit is bounded by the hardware, so
// the cross-machine figure of merit is sims/s at procs=N vs procs=1.
func benchDistT2(b *testing.B, procs int) {
	ins := batchT2Instances()
	set := rendezvous.DefaultSettings()
	set.MaxSegments = 120_000_000
	set.Parallelism = 1
	set.WorkerProcs = procs
	alg := rendezvous.AlmostUniversalRV()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, res := range rendezvous.SimulateBatch(ins, alg, set) {
			if !res.Met {
				b.Fatalf("instance %d failed to meet: %v", j, ins[j])
			}
		}
	}
	b.ReportMetric(float64(len(ins)*b.N)/b.Elapsed().Seconds(), "sims/s")
}

func BenchmarkDistT2Procs1(b *testing.B) { benchDistT2(b, 1) }
func BenchmarkDistT2Procs2(b *testing.B) { benchDistT2(b, 2) }

// BenchmarkDistT2Session is the fleet-session contrast to
// BenchmarkDistT2Procs2: the same batch over the same 2-subprocess
// fleet, but dialed ONCE outside the loop (dist.Dial) and reused per
// iteration — the spawn/handshake amortization rvtable gets by sharing
// one session across T1–T6. The per-iteration delta against
// DistT2Procs2 is the session's savings.
func BenchmarkDistT2Session(b *testing.B) {
	ins := batchT2Instances()
	set := sim.DefaultSettings()
	set.MaxSegments = 120_000_000
	set.Parallelism = 1
	jobs := wireJobs(b, ins, set)
	f, err := dist.Dial(dist.Config{Procs: 2})
	if err != nil {
		b.Fatalf("fleet dial failed: %v", err)
	}
	defer f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := f.Run(jobs, 1)
		if err != nil {
			b.Fatalf("session batch failed: %v", err)
		}
		for j, r := range res {
			if !r.Met {
				b.Fatalf("instance %d failed to meet: %v", j, ins[j])
			}
		}
	}
	b.ReportMetric(float64(len(ins)*b.N)/b.Elapsed().Seconds(), "sims/s")
}

// wireJobs builds wire-formed batch jobs for the compact AURV
// algorithm — what rendezvous.SimulateBatch does before dispatch.
func wireJobs(b *testing.B, ins []inst.Instance, set sim.Settings) []batch.Job {
	b.Helper()
	mk, ok := wire.Algorithm(dist.AlgAURVCompact)
	if !ok {
		b.Fatalf("algorithm %q not registered", dist.AlgAURVCompact)
	}
	jobs := make([]batch.Job, len(ins))
	for i, in := range ins {
		wj := wire.Job{In: in, Alg: dist.AlgAURVCompact, Set: set}
		jobs[i] = batch.Job{
			A:        sim.AgentSpec{Attrs: in.AgentA(), Prog: mk(in), Radius: in.R},
			B:        sim.AgentSpec{Attrs: in.AgentB(), Prog: mk(in), Radius: in.R},
			Settings: set,
			Key:      wj,
			Wire:     &wj,
		}
	}
	return jobs
}

// The multi-tenant pair: two single-job dispatches over a 2-connection
// fleet reached through a 5ms-propagation emulated link. Each dispatch
// alone UNDERFILLS the fleet — one job, two connections — so
// serialized, every dispatch pays a full round trip while the second
// connection idles; run concurrently, the shared scheduler puts both
// tenants' jobs in flight at once and the round trips overlap. The
// aggregate-throughput delta is exactly the idle capacity the
// multi-tenant scheduler reclaims (the ≥1.5× acceptance criterion;
// ~2× is the ceiling with two tenants). The link delay, not loopback
// compute, carries the wait — so the figure holds on any host,
// including single-core CI runners.
func multiTenantFleet(b *testing.B) (*dist.Fleet, []batch.Job, []batch.Job) {
	b.Helper()
	ins := batchT2Instances()
	set := sim.DefaultSettings()
	set.MaxSegments = 120_000_000
	set.Parallelism = 1
	jobsA, jobsB := wireJobs(b, ins[:1], set), wireJobs(b, ins[1:2], set)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("worker listen failed: %v", err)
	}
	srv := dist.NewServer(dist.ServeOptions{})
	go srv.Serve(l)
	b.Cleanup(func() { srv.Shutdown() })
	proxy, err := dist.NewChaosProxy(l.Addr().String(), dist.ChaosPlan{
		Default: dist.ConnScript{Delay: 5 * time.Millisecond},
	})
	if err != nil {
		b.Fatalf("proxy start failed: %v", err)
	}
	b.Cleanup(proxy.Close)
	hosts, err := dist.ParseHosts(proxy.Addr() + "," + proxy.Addr())
	if err != nil {
		b.Fatalf("parse hosts: %v", err)
	}
	f, err := dist.Dial(dist.Config{Hosts: hosts})
	if err != nil {
		b.Fatalf("fleet dial failed: %v", err)
	}
	b.Cleanup(func() { f.Close() })
	return f, jobsA, jobsB
}

func runTenantJobs(b *testing.B, f *dist.Fleet, jobs []batch.Job) {
	if _, _, err := f.Run(jobs, 1); err != nil {
		b.Errorf("tenant dispatch failed: %v", err)
	}
}

// BenchmarkDistMultiTenantSerial is the baseline: the two dispatches
// run back-to-back over the shared session, each paying its round
// trip alone while the other connection idles.
func BenchmarkDistMultiTenantSerial(b *testing.B) {
	f, jobsA, jobsB := multiTenantFleet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTenantJobs(b, f, jobsA)
		runTenantJobs(b, f, jobsB)
	}
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "sims/s")
}

// BenchmarkDistMultiTenant runs the same two dispatches concurrently:
// the multi-tenant scheduler serves both from one fleet, each idle
// connection claiming from whichever tenant has work, so the round
// trips overlap. Compare sims/s against DistMultiTenantSerial.
func BenchmarkDistMultiTenant(b *testing.B) {
	f, jobsA, jobsB := multiTenantFleet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan struct{})
		go func() { defer close(done); runTenantJobs(b, f, jobsA) }()
		runTenantJobs(b, f, jobsB)
		<-done
	}
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "sims/s")
}

// benchDistT2Window runs the T2 batch through 2 worker subprocesses at
// an explicit send window. On loopback pipes the round trip is cheap,
// so the window's latency-hiding shows up only mildly here — the
// in-test latency differential (TestWindowHidesLatency) is the ≥2×
// witness; this benchmark records the no-latency overhead/benefit of
// pipelining plus the in-worker pool (Parallelism forwarded).
func benchDistT2Window(b *testing.B, window int) {
	ins := batchT2Instances()
	set := rendezvous.DefaultSettings()
	set.MaxSegments = 120_000_000
	set.Parallelism = 2 // forwarded: each worker runs a 2-wide pool
	set.WorkerProcs = 2
	set.Window = window
	alg := rendezvous.AlmostUniversalRV()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, res := range rendezvous.SimulateBatch(ins, alg, set) {
			if !res.Met {
				b.Fatalf("instance %d failed to meet: %v", j, ins[j])
			}
		}
	}
	b.ReportMetric(float64(len(ins)*b.N)/b.Elapsed().Seconds(), "sims/s")
}

func BenchmarkDistT2Window1(b *testing.B) { benchDistT2Window(b, 1) }
func BenchmarkDistT2Window4(b *testing.B) { benchDistT2Window(b, 4) }

// BenchmarkDistT5Chunks ships the T5 Monte-Carlo chunks to 2 worker
// subprocesses (spawned fresh per iteration, so the figure includes
// fleet startup — the realistic per-sweep overhead); the result is
// asserted byte-identical to the in-process chunked sweep.
func BenchmarkDistT5Chunks(b *testing.B) {
	const n = 512_000 // 8 chunks
	eps := []float64{0.25, 0.35, 0.5}
	box := measure.DefaultBox()
	want := measure.SweepParallel(n, eps, box, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := dist.Dial(dist.Config{Procs: 2, Window: 2})
		if err != nil {
			b.Fatalf("fleet dial failed: %v", err)
		}
		got, err := f.Sweep(n, eps, box, 5, 1)
		f.Close()
		if err != nil {
			b.Fatalf("distributed sweep failed: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			b.Fatal("distributed sweep diverged from in-process")
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// ---- WAN benchmarks: the wire path through an emulated wide-area link. ----

// benchAlgZig is the trace-dense workload of the WAN benchmarks: agents
// zigzag without ever meeting, so every movement segment records a
// trajectory point and each result ships thousands of TraceCap-bounded
// points back over the link. That reply traffic is what a WAN-tuned
// wire path must move well — the regular zigzag coordinates have sparse
// mantissas, so flate sees long byte repeats and negotiated compression
// cuts the transported bytes by well over half, while the chunked trace
// stream keeps individual frames bounded. (The AURV workloads meet
// within a few segments and cannot produce traces like these.)
const benchAlgZig = "bench-wan-zigzag"

func init() {
	wire.RegisterAlgorithm(benchAlgZig, func(inst.Instance) prog.Program {
		zigs := make([]prog.Instr, 0, 6000)
		for i := 0; i < 3000; i++ {
			zigs = append(zigs, prog.Move(prog.North, 1), prog.Move(prog.South, 1))
		}
		return prog.Instrs(zigs...)
	})
}

// wanJobs builds 8 wire-formed zigzag jobs on far-apart instances (the
// agents never meet; the traces run the full program).
func wanJobs(b *testing.B, set sim.Settings) []batch.Job {
	mk, ok := wire.Algorithm(benchAlgZig)
	if !ok {
		b.Fatalf("algorithm %q not registered", benchAlgZig)
	}
	jobs := make([]batch.Job, 0, 8)
	for i := 0; i < 8; i++ {
		chi := 1
		if i%2 == 1 {
			chi = -1
		}
		in := rendezvous.Instance{
			R: 0.1, X: 200 + 10*float64(i), Y: float64(i%3) - 1,
			Phi: float64(i) * 0.3, Tau: 1, V: 1, T: float64(i) * 0.25, Chi: chi,
		}
		wj := wire.Job{In: in, Alg: benchAlgZig, Set: set}
		jobs = append(jobs, batch.Job{
			A:        sim.AgentSpec{Attrs: in.AgentA(), Prog: mk(in), Radius: in.R},
			B:        sim.AgentSpec{Attrs: in.AgentB(), Prog: mk(in), Radius: in.R},
			Settings: set,
			Key:      wj,
			Wire:     &wj,
		})
	}
	return jobs
}

func encodeResults(res []sim.Result) []byte {
	var buf []byte
	for _, r := range res {
		buf = wire.AppendResult(buf, r)
	}
	return buf
}

// benchDistT2WAN runs the trace-heavy batch against one in-process TCP
// worker behind a chaos proxy scripted as a WAN link (2ms propagation,
// 1 MiB/s per direction). The figure of merit is sims/s with
// compression off (raw) versus on (compressed): on a bandwidth-capped
// link the reply traces dominate the wire, so the compressed run's
// throughput gain is the wire path's WAN win — while every byte of the
// results stays identical to the in-process batch.
func benchDistT2WAN(b *testing.B, compress bool) {
	set := sim.DefaultSettings()
	set.MaxSegments = 50_000
	set.TraceCap = 4096
	set.Parallelism = 1
	jobs := wanJobs(b, set)

	want, _ := batch.Run(jobs, 1)
	pts := 0
	for _, r := range want {
		pts += len(r.TraceA) + len(r.TraceB)
	}
	if pts < len(jobs)*4096 {
		b.Fatalf("workload carries only %d trace points; the WAN benchmark would be vacuous", pts)
	}
	wantEnc := encodeResults(want)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("worker listen failed: %v", err)
	}
	srv := dist.NewServer(dist.ServeOptions{})
	go srv.Serve(l)
	defer srv.Shutdown()
	proxy, err := dist.NewChaosProxy(l.Addr().String(), dist.ChaosPlan{
		Default: dist.ConnScript{Delay: 2 * time.Millisecond, Bandwidth: 1 << 20},
	})
	if err != nil {
		b.Fatalf("proxy start failed: %v", err)
	}
	defer proxy.Close()
	hosts, err := dist.ParseHosts(proxy.Addr())
	if err != nil {
		b.Fatalf("parse hosts: %v", err)
	}
	f, err := dist.Dial(dist.Config{Hosts: hosts, Compress: compress, Window: 4})
	if err != nil {
		b.Fatalf("fleet dial failed: %v", err)
	}
	defer f.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := f.Run(jobs, 1)
		if err != nil {
			b.Fatalf("WAN batch failed: %v", err)
		}
		if !bytes.Equal(encodeResults(res), wantEnc) {
			b.Fatal("WAN run diverged from in-process results")
		}
	}
	b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "sims/s")
}

func BenchmarkDistT2WAN(b *testing.B) {
	b.Run("raw", func(b *testing.B) { benchDistT2WAN(b, false) })
	b.Run("compressed", func(b *testing.B) { benchDistT2WAN(b, true) })
}

// benchDistT5WAN ships the T5 Monte-Carlo chunks through the same
// emulated WAN link (dialed fresh per iteration, so the figure includes
// the handshake crossing the delay line). Sweep replies are small
// scalar tallies — the contrast with DistT2WAN shows which workloads
// compression pays on.
func benchDistT5WAN(b *testing.B, compress bool) {
	const n = 256_000
	eps := []float64{0.25, 0.5}
	box := measure.DefaultBox()
	want := measure.SweepParallel(n, eps, box, 5, 1)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("worker listen failed: %v", err)
	}
	srv := dist.NewServer(dist.ServeOptions{})
	go srv.Serve(l)
	defer srv.Shutdown()
	proxy, err := dist.NewChaosProxy(l.Addr().String(), dist.ChaosPlan{
		Default: dist.ConnScript{Delay: 2 * time.Millisecond, Bandwidth: 4 << 20},
	})
	if err != nil {
		b.Fatalf("proxy start failed: %v", err)
	}
	defer proxy.Close()
	hosts, err := dist.ParseHosts(proxy.Addr())
	if err != nil {
		b.Fatalf("parse hosts: %v", err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := dist.Dial(dist.Config{Hosts: hosts, Compress: compress, Window: 2})
		if err != nil {
			b.Fatalf("fleet dial failed: %v", err)
		}
		got, err := f.Sweep(n, eps, box, 5, 1)
		f.Close()
		if err != nil {
			b.Fatalf("WAN sweep failed: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			b.Fatal("WAN sweep diverged from in-process")
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkDistT5WAN(b *testing.B) {
	b.Run("raw", func(b *testing.B) { benchDistT5WAN(b, false) })
	b.Run("compressed", func(b *testing.B) { benchDistT5WAN(b, true) })
}

// BenchmarkBatchTableT2 regenerates the full T2 table through the pool
// at 1 vs GOMAXPROCS workers — the end-to-end version of the scaling
// claim.
func BenchmarkBatchTableT2(b *testing.B) {
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			bud := quickBudgets()
			bud.Workers = w
			for i := 0; i < b.N; i++ {
				_ = exps.T2(11, 4, bud)
			}
		})
	}
}

// ---- Figure benchmarks. ----

func BenchmarkF1Figure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exps.Fig1()
	}
}
func BenchmarkF2Figure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exps.Fig2()
	}
}
func BenchmarkF3Figure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exps.Fig3()
	}
}
func BenchmarkF4Figure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exps.Fig4()
	}
}
func BenchmarkF5Figure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exps.Fig5()
	}
}

// ---- Kernel micro-benchmarks. ----

// engineThroughputSegs is the segment budget of one EngineThroughput
// run: a long non-meeting North/South shuttle at gap 100.
const engineThroughputSegs = 200_000

func engineThroughputSettings() sim.Settings {
	set := sim.DefaultSettings()
	set.MaxSegments = engineThroughputSegs
	set.SightSlack = 0
	return set
}

func engineRun(b *testing.B, pa, pb prog.Program, set sim.Settings) {
	refAt := func(origin geom.Vec2) phys.Attributes {
		a := phys.Reference()
		a.Origin = origin
		return a
	}
	a := sim.AgentSpec{Attrs: refAt(geom.V(0, 0)), Prog: pa, Radius: 0.1}
	bb := sim.AgentSpec{Attrs: refAt(geom.V(100, 0)), Prog: pb, Radius: 0.1}
	if res := sim.Run(a, bb, set); res.Met {
		b.Fatal("unexpected meeting")
	}
}

// BenchmarkEngineThroughput measures the simulator's segment loop
// alone (segments/second is the figure of merit): the shuttle program
// is built once, as a cursor-backed instruction list, so each run
// allocates only its runners and cursors, not the program.
func BenchmarkEngineThroughput(b *testing.B) {
	set := engineThroughputSettings()
	list := make([]prog.Instr, 0, engineThroughputSegs)
	for len(list) < engineThroughputSegs {
		list = append(list, prog.Move(prog.North, 1), prog.Move(prog.South, 1))
	}
	p := prog.Instrs(list...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engineRun(b, p, p, set)
	}
	b.ReportMetric(float64(engineThroughputSegs*b.N)/b.Elapsed().Seconds(), "segments/s")
}

// BenchmarkEngineThroughputGen runs the same shuttle generated round by
// round by a Forever combinator: segment loop plus per-round program
// construction, which accounts for nearly all of its allocations.
func BenchmarkEngineThroughputGen(b *testing.B) {
	set := engineThroughputSettings()
	mk := func() prog.Program {
		return prog.Forever(func(i int) prog.Program {
			return prog.Instrs(prog.Move(prog.North, 1), prog.Move(prog.South, 1))
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engineRun(b, mk(), mk(), set)
	}
	b.ReportMetric(float64(engineThroughputSegs*b.N)/b.Elapsed().Seconds(), "segments/s")
}

// BenchmarkInstrStreamCursor drains a fixed prefix of Algorithm 1's
// instruction stream outside the simulator: the raw cost of program
// generation on the cursor engine.
func BenchmarkInstrStreamCursor(b *testing.B) {
	const n = 200_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := core.Program(core.Compact(), nil)()
		for k := 0; k < n; k++ {
			if _, ok := cur.Next(); !ok {
				b.Fatal("stream ended early")
			}
		}
		cur.Close()
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkClosestApproach measures the analytic sight kernel.
func BenchmarkClosestApproach(b *testing.B) {
	p := geom.Moving{P: geom.V(0, 0), V: geom.V(1, 0.3)}
	q := geom.Moving{P: geom.V(10, 2), V: geom.V(-0.8, 0.1)}
	sum := 0.0
	for i := 0; i < b.N; i++ {
		ap := geom.ClosestApproach(p, q, 50)
		sum += ap.DMin
	}
	_ = sum
}

// BenchmarkFirstWithin measures the sight-crossing root solver.
func BenchmarkFirstWithin(b *testing.B) {
	p := geom.Moving{P: geom.V(0, 0), V: geom.V(1, 0)}
	q := geom.Moving{P: geom.V(100, 1), V: geom.V(-1, 0)}
	n := 0
	for i := 0; i < b.N; i++ {
		if _, ok := geom.FirstWithin(p, q, 200, 2); ok {
			n++
		}
	}
	_ = n
}

// BenchmarkDDAdd measures the double-double clock accumulation against
// the plain float64 baseline BenchmarkFloatAdd.
func BenchmarkDDAdd(b *testing.B) {
	t := dd.FromFloat(math.Ldexp(1, 55))
	for i := 0; i < b.N; i++ {
		t = t.AddFloat(0.1)
	}
	_ = t
}

func BenchmarkFloatAdd(b *testing.B) {
	t := math.Ldexp(1, 55)
	for i := 0; i < b.N; i++ {
		t += 0.1
	}
	_ = t
}

// BenchmarkPlanarWalkGen measures lazy program generation rate.
func BenchmarkPlanarWalkGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := 0
		for range prog.All(walk.Planar(5)) {
			n++
		}
		if n == 0 {
			b.Fatal("empty walk")
		}
	}
}

// ---- Scaling sweeps (the figures of merit the paper's bounds imply). ----

// BenchmarkScalingDelay: AURV meeting time as the wake-up delay grows on
// a type-4 family (the paper's bound grows with log t in the phase
// index).
func BenchmarkScalingDelay(b *testing.B) {
	for _, t := range []float64{0.5, 2, 8, 32} {
		b.Run(fmtF("t=%g", t), func(b *testing.B) {
			in := rendezvous.Instance{R: 0.8, X: 0.9, Y: 0.1, Phi: 1.1, Tau: 1, V: 1.5, T: t, Chi: 1}
			set := rendezvous.DefaultSettings()
			set.MaxSegments = 400_000_000
			var meet float64
			for i := 0; i < b.N; i++ {
				res := rendezvous.Simulate(in, rendezvous.AlmostUniversalRV(), set)
				if !res.Met {
					b.Fatalf("no meet at t=%v", t)
				}
				meet = res.MeetTime.Float64()
			}
			b.ReportMetric(meet, "meet-time")
		})
	}
}

// BenchmarkScalingClockRatio: type-3 meeting time versus the clock ratio
// (closer clocks need later phases — the drift must accumulate).
func BenchmarkScalingClockRatio(b *testing.B) {
	for _, tau := range []float64{4, 2, 1.5, 1.2} {
		b.Run(fmtF("tau=%g", tau), func(b *testing.B) {
			in := rendezvous.Instance{R: 0.5, X: 1.2, Y: 0.6, Phi: 0.8, Tau: tau, V: 1 / tau, T: 0.5, Chi: 1}
			set := rendezvous.DefaultSettings()
			set.MaxSegments = 200_000_000
			var meet float64
			for i := 0; i < b.N; i++ {
				res := rendezvous.Simulate(in, rendezvous.AlmostUniversalRV(), set)
				if !res.Met {
					b.Fatalf("no meet at tau=%v", tau)
				}
				meet = res.MeetTime.Float64()
			}
			b.ReportMetric(meet, "meet-time")
		})
	}
}

// BenchmarkScalingRadius: type-1 meeting time versus the visibility
// radius (smaller r forces finer phases — the phase staircase).
func BenchmarkScalingRadius(b *testing.B) {
	for _, r := range []float64{1.0, 0.7, 0.5} {
		b.Run(fmtF("r=%g", r), func(b *testing.B) {
			in := rendezvous.Instance{R: r, X: 1.1, Y: 0, Phi: 0, Tau: 1, V: 1, Chi: -1}
			in.T = in.ProjGap() - r + 0.5
			set := rendezvous.DefaultSettings()
			set.MaxSegments = 400_000_000
			var meet float64
			for i := 0; i < b.N; i++ {
				res := rendezvous.Simulate(in, rendezvous.AlmostUniversalRV(), set)
				if !res.Met {
					b.Fatalf("no meet at r=%v", r)
				}
				meet = res.MeetTime.Float64()
			}
			b.ReportMetric(meet, "meet-time")
		})
	}
}

// BenchmarkAblationSchedule: compact vs faithful schedule on an instance
// meeting in phase 1 — the design-choice ablation DESIGN.md calls out
// (the faithful schedule is simulable only while the meeting happens
// before its 2^60 phase-2 wait).
func BenchmarkAblationSchedule(b *testing.B) {
	in := rendezvous.Instance{R: 0.8, X: 1.1, Y: 0, Phi: 0, Tau: 1, V: 1, T: 1.0, Chi: 1}
	for _, sched := range []rendezvous.Schedule{core.Compact(), core.Faithful()} {
		b.Run(sched.Name, func(b *testing.B) {
			set := rendezvous.DefaultSettings()
			set.MaxSegments = 100_000_000
			for i := 0; i < b.N; i++ {
				res := rendezvous.Simulate(in, rendezvous.AlmostUniversalRVWith(sched), set)
				if !res.Met {
					b.Fatal("no meet")
				}
			}
		})
	}
}

// BenchmarkCGKKSolve: the substrate procedure alone on its contract.
func BenchmarkCGKKSolve(b *testing.B) {
	in := rendezvous.Instance{R: 0.6, X: 1.0, Y: 0.2, Phi: 1.2, Tau: 1, V: 1, T: 0, Chi: 1}
	set := rendezvous.DefaultSettings()
	set.MaxSegments = 50_000_000
	for i := 0; i < b.N; i++ {
		res := rendezvous.Simulate(in, rendezvous.CGKK(), set)
		if !res.Met {
			b.Fatal("no meet")
		}
	}
}

// BenchmarkLatecomersSolve: likewise for the latecomer substrate.
func BenchmarkLatecomersSolve(b *testing.B) {
	in := rendezvous.Instance{R: 1.0, X: 1.1, Y: 0, Phi: 0, Tau: 1, V: 1, T: 1.0, Chi: 1}
	set := rendezvous.DefaultSettings()
	set.MaxSegments = 50_000_000
	for i := 0; i < b.N; i++ {
		res := rendezvous.Simulate(in, rendezvous.Latecomers(), set)
		if !res.Met {
			b.Fatal("no meet")
		}
	}
}

// BenchmarkMeasureSweep: the Monte-Carlo kernel of T5.
func BenchmarkMeasureSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = measure.Sweep(100_000, []float64{0.25, 0.5}, measure.DefaultBox(), 9)
	}
}

// BenchmarkPredictPhase: the analytic predictor.
func BenchmarkPredictPhase(b *testing.B) {
	in := rendezvous.Instance{R: 0.5, X: 1.2, Y: 0.6, Phi: 0.8, Tau: 2, V: 0.5, T: 0.5, Chi: 1}
	s := core.Compact()
	for i := 0; i < b.N; i++ {
		if _, ok := core.PredictPhase(in, s); !ok {
			b.Fatal("no prediction")
		}
	}
}

// BenchmarkCGKKFixedPoint: the fixed-point computation kernel.
func BenchmarkCGKKFixedPoint(b *testing.B) {
	in := rendezvous.Instance{R: 0.6, X: 1.0, Y: 0.2, Phi: 1.2, Tau: 1, V: 1.3, T: 0, Chi: 1}
	for i := 0; i < b.N; i++ {
		if _, ok := cgkk.FixedPoint(in); !ok {
			b.Fatal("singular")
		}
	}
}

func fmtF(format string, v float64) string {
	return fmt.Sprintf(format, v)
}
