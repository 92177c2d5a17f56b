package dist

import (
	"bytes"
	"net"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/batch"
	"repro/internal/measure"
	"repro/internal/sim"
)

// countingWorker serves real worker streams on a loopback listener and
// counts accepted connections — the instrument for asserting how many
// times a coordinator actually dialed.
func countingWorker(t *testing.T) (addr string, conns *atomic.Int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	conns = new(atomic.Int64)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conn.Close()
				Serve(conn, conn, ServeOptions{})
			}()
		}
	}()
	return l.Addr().String(), conns
}

// TestFleetSingleHandshake is the session acceptance criterion: one
// shared fleet across several batches and a sweep dials (and
// handshakes) each host exactly once, where the per-call path pays one
// dial per call — and every run stays byte-identical to in-process
// serial, memoization accounting included.
func TestFleetSingleHandshake(t *testing.T) {
	addr, conns := countingWorker(t)
	cfg := Config{Hosts: tcpHosts(addr)}

	ins := drawInstances(3)
	ins = append(ins, ins[0]) // a duplicate for the memoization path
	set := testSettings()
	want, wantStats := batch.Run(aurvJobs(t, ins, set), 1)

	const nSweep = 150_000 // 3 chunks
	eps := []float64{0.25, 0.5}
	box := measure.DefaultBox()
	wantSweep := measure.SweepParallel(nSweep, eps, box, 5, 1)

	f, err := Dial(cfg)
	if err != nil {
		t.Fatalf("fleet dial failed: %v", err)
	}
	defer f.Close()
	const batches = 3
	for k := 0; k < batches; k++ {
		got, gotStats, err := f.Run(aurvJobs(t, ins, set), 1)
		if err != nil {
			t.Fatalf("fleet batch %d failed: %v", k, err)
		}
		if !bytes.Equal(encodeAll(got), encodeAll(want)) {
			t.Fatalf("fleet batch %d differs from in-process serial", k)
		}
		if gotStats.Executed != wantStats.Executed {
			t.Fatalf("fleet batch %d Executed = %d, want %d", k, gotStats.Executed, wantStats.Executed)
		}
	}
	gotSweep, err := f.Sweep(nSweep, eps, box, 5, 1)
	if err != nil {
		t.Fatalf("fleet sweep failed: %v", err)
	}
	if !reflect.DeepEqual(gotSweep, wantSweep) {
		t.Fatal("fleet sweep diverges from in-process")
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("shared fleet dialed %d times across %d batches + 1 sweep, want exactly 1", n, batches)
	}
	f.Close()

	// The per-call path dials an ephemeral session per batch: N calls,
	// N handshakes — the cost the session exists to amortize.
	for k := 0; k < batches; k++ {
		got, _, err := runOnce(aurvJobs(t, ins, set), 1, cfg)
		if err != nil {
			t.Fatalf("per-call batch %d failed: %v", k, err)
		}
		if !bytes.Equal(encodeAll(got), encodeAll(want)) {
			t.Fatalf("per-call batch %d differs from in-process serial", k)
		}
	}
	if n := conns.Load(); n != 1+batches {
		t.Fatalf("per-call path dialed %d times total, want %d (1 session + %d calls)", n, 1+batches, batches)
	}
}

// TestFleetClosedRefusesWork: dispatch after Close must fail (and the
// OrFallback wrappers must then complete in-process, byte-identically).
func TestFleetClosedRefusesWork(t *testing.T) {
	addr, _ := countingWorker(t)
	f, err := Dial(Config{Hosts: tcpHosts(addr)})
	if err != nil {
		t.Fatalf("fleet dial failed: %v", err)
	}
	f.Close()

	ins := drawInstances(1)[:1]
	set := testSettings()
	if _, _, err := f.Run(aurvJobs(t, ins, set), 1); err == nil {
		t.Fatal("closed fleet accepted a batch")
	}
	var log bytes.Buffer
	f.cfg.Stderr = &log
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)
	got, _ := f.RunOrFallback(aurvJobs(t, ins, set), 1)
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("closed-fleet fallback differs from in-process")
	}
	if !bytes.Contains(log.Bytes(), []byte("in-process")) {
		t.Fatalf("closed-fleet fallback did not warn:\n%s", log.String())
	}
}

// TestFleetStreamOrFallback: the session's streaming path delivers the
// full batch in input order over a live fleet.
func TestFleetStreamOrFallback(t *testing.T) {
	addr, conns := countingWorker(t)
	f, err := Dial(Config{Hosts: tcpHosts(addr)})
	if err != nil {
		t.Fatalf("fleet dial failed: %v", err)
	}
	defer f.Close()

	ins := drawInstances(2)
	set := testSettings()
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)
	for k := 0; k < 2; k++ {
		var got []sim.Result
		for r := range f.StreamOrFallback(aurvJobs(t, ins, set), 1) {
			got = append(got, r)
		}
		if !bytes.Equal(encodeAll(got), encodeAll(want)) {
			t.Fatalf("streamed batch %d differs from in-process serial", k)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("streaming over the session dialed %d times, want 1", n)
	}
}

// TestFleetHeterogeneousPools pins the host:port*pool hint path: a
// 2-worker fleet with different per-host pools (1 and 3) — while the
// jobs forward a third Parallelism value — must remain byte-identical
// to the in-process serial run, Stats.Executed included. The hint is
// pure scheduling; this differential is the determinism witness the
// ISSUE names.
func TestFleetHeterogeneousPools(t *testing.T) {
	a1, _ := countingWorker(t)
	a2, _ := countingWorker(t)

	ins := drawInstances(4)
	ins = append(ins, ins[2]) // a duplicate for the memoization path
	set := testSettings()
	set.Parallelism = 2 // forwarded — the per-host hints override it

	want, wantStats := batch.Run(aurvJobs(t, ins, set), 1)
	got, gotStats, err := runOnce(aurvJobs(t, ins, set), 1, Config{
		Hosts: []Host{{Addr: a1, Pool: 1}, {Addr: a2, Pool: 3}},
	})
	if err != nil {
		t.Fatalf("heterogeneous run failed: %v", err)
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("heterogeneous-pool results differ from in-process serial")
	}
	if gotStats.Executed != wantStats.Executed || gotStats.Executed != len(ins)-1 {
		t.Fatalf("Executed = %d, want %d", gotStats.Executed, len(ins)-1)
	}
	if gotStats.Met != wantStats.Met || gotStats.Segments != wantStats.Segments {
		t.Fatalf("aggregate stats diverge: %+v vs %+v", gotStats, wantStats)
	}
}
