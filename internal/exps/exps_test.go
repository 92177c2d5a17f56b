package exps

import (
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
)

// TestMain lets this test binary serve as its own worker fleet: the
// coordinator's default WorkerCmd re-executes the current executable
// and MaybeServeStdio diverts that copy into the worker loop (see
// TestT5DistributedMatchesInProcess).
func TestMain(m *testing.M) {
	dist.MaybeServeStdio()
	os.Exit(m.Run())
}

// smallBudgets keeps the test-suite runtime in check while preserving
// every assertion the tables make. Workers 0 fans the per-instance runs
// over GOMAXPROCS — by the batch determinism guarantee the tables are
// byte-identical to the serial run (asserted by the
// TestT*ParallelMatchesSerial tests below).
func smallBudgets() Budgets {
	return Budgets{MeetSegments: 120_000_000, MissSegments: 1_000_000}
}

func TestT1AllAgree(t *testing.T) {
	tb := T1(1, 3, smallBudgets())
	out := tb.String()
	for _, row := range tb.Rows {
		agree := row[len(row)-1]
		if agree != "3/3" {
			t.Errorf("T1 row %q agreement %s:\n%s", row[0], agree, out)
		}
	}
}

func TestT2AllMeet(t *testing.T) {
	tb := T2(2, 4, smallBudgets())
	for _, row := range tb.Rows {
		met := row[2]
		if !strings.HasPrefix(met, row[1]+"/") || !strings.HasSuffix(met, "/"+row[1]) {
			t.Errorf("T2 type %q met %s of %s:\n%s", row[0], met, row[1], tb.String())
		}
	}
}

func TestT3CoveragePattern(t *testing.T) {
	tb := T3(3, 2, smallBudgets())
	// Columns: class, CGKK, Latecomers, AURV, Dedicated. Only provable
	// cells are asserted: an algorithm's contract classes must be full,
	// the boundary classes must be empty for the universal algorithms
	// (the generic-direction invariant), and Dedicated covers everything
	// feasible. Cells outside any guarantee are informative only — the
	// procedures share planar-sweep machinery and often meet
	// opportunistically beyond their contracts.
	full := "2/2"
	zero := "0/2"
	expect := map[string][4]string{
		"t=0 non-sync":       {full, "", full, full},
		"t=0 sync φ≠0 χ=1":   {full, "", full, full},
		"sync φ=0 χ=1 t>d-r": {"", full, full, full},
		"sync χ=-1 t>gap-r":  {"", "", full, full},
		"τ≠1 any t":          {"", "", full, full},
		"sync φ≠0 χ=1 t>0":   {"", "", full, full},
		"S1 boundary":        {zero, zero, zero, full},
		"S2 boundary":        {"", zero, zero, full},
	}
	for _, row := range tb.Rows {
		want, ok := expect[row[0]]
		if !ok {
			t.Errorf("unexpected class %q", row[0])
			continue
		}
		for i, w := range want {
			if w == "" {
				continue // cell outside any guarantee: value is informative only
			}
			if row[i+1] != w {
				t.Errorf("T3 %q column %d = %s, want %s\n%s", row[0], i+1, row[i+1], w, tb.String())
			}
		}
	}
}

func TestT4Checks(t *testing.T) {
	tb := T4(4, smallBudgets())
	for _, row := range tb.Rows {
		res := row[len(row)-1]
		if strings.Contains(res, "FAILED") {
			t.Errorf("T4 %q: %s\n%s", row[0], res, tb.String())
		}
		if strings.Contains(row[0], "S2:") || strings.Contains(row[0], "S1:") {
			if !strings.HasSuffix(res, "/5") || !strings.HasPrefix(res, "5/") {
				t.Errorf("T4 %q = %s, want 5/5", row[0], res)
			}
		}
	}
	// The aligned caveat row must report a meeting.
	last := tb.Rows[len(tb.Rows)-1]
	if !strings.Contains(last[2], "met") {
		t.Errorf("aligned S1 row: %v", last)
	}
}

func TestT5Measure(t *testing.T) {
	tb := T5(300_000, 5, Budgets{})
	out := tb.String()
	if !strings.Contains(out, "feasible share") {
		t.Fatalf("missing rows:\n%s", out)
	}
	for _, row := range tb.Rows {
		if row[0] == "exact S1 hits" || row[0] == "exact S2 hits" {
			if row[1] != "0" {
				t.Errorf("%s = %s, want 0", row[0], row[1])
			}
		}
	}
}

func TestT6BoundarySharpness(t *testing.T) {
	tb := T6(6, smallBudgets())
	if len(tb.Rows) != 5 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		delta, feasible, aurv, ded := row[0], row[1], row[2], row[3]
		neg := strings.HasPrefix(delta, "-")
		zero := delta == "+0.00"
		switch {
		case neg:
			if feasible != "false" || strings.HasPrefix(aurv, "met") || ded != "n/a (infeasible)" {
				t.Errorf("δ=%s: %v", delta, row)
			}
		case zero:
			if feasible != "true" || strings.HasPrefix(aurv, "met") || !strings.HasPrefix(ded, "met") {
				t.Errorf("δ=0: %v", row)
			}
		default:
			if feasible != "true" || !strings.HasPrefix(aurv, "met") || !strings.HasPrefix(ded, "met") {
				t.Errorf("δ=%s: %v", delta, row)
			}
		}
	}
}

// TestT2ParallelMatchesSerial is the table-level determinism assertion:
// the rendered T2 report must be byte-equal whether the per-instance
// runs execute serially or on 8 workers.
func TestT2ParallelMatchesSerial(t *testing.T) {
	serial := smallBudgets()
	serial.Workers = 1
	parallel := smallBudgets()
	parallel.Workers = 8
	s := T2(2, 4, serial).String()
	p := T2(2, 4, parallel).String()
	if s != p {
		t.Errorf("T2 output depends on worker count:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", s, p)
	}
}

// TestT1ParallelMatchesSerial: T1's one batch (dedicated closures and
// wire-formed AURV runs together) renders identically for any pool size.
func TestT1ParallelMatchesSerial(t *testing.T) {
	serial := smallBudgets()
	serial.Workers = 1
	parallel := smallBudgets()
	parallel.Workers = 8
	s := T1(1, 3, serial).String()
	p := T1(1, 3, parallel).String()
	if s != p {
		t.Errorf("T1 output depends on worker count:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", s, p)
	}
}

// TestT6ParallelMatchesSerial: T6's δ sweep renders identically for any
// pool size.
func TestT6ParallelMatchesSerial(t *testing.T) {
	serial := smallBudgets()
	serial.Workers = 1
	parallel := smallBudgets()
	parallel.Workers = 8
	s := T6(6, serial).String()
	p := T6(6, parallel).String()
	if s != p {
		t.Errorf("T6 output depends on worker count:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", s, p)
	}
}

// TestT5ParallelMatchesSerial pins the worker-count independence of the
// chunked Monte-Carlo sweep.
func TestT5ParallelMatchesSerial(t *testing.T) {
	s := T5(200_000, 5, Budgets{Workers: 1}).String()
	p := T5(200_000, 5, Budgets{Workers: 8}).String()
	if s != p {
		t.Errorf("T5 output depends on worker count:\n%s\nvs\n%s", s, p)
	}
}

// TestT5DistributedMatchesInProcess pins the distributed T5 table to
// the in-process one: shipping the Monte-Carlo chunks to worker
// subprocesses must not change a character of the rendered table.
func TestT5DistributedMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	local := T5(200_000, 5, Budgets{Workers: 2}).String()
	var distLog strings.Builder
	f, err := dist.Dial(dist.Config{Procs: 2, Window: 2, Stderr: &distLog})
	if err != nil {
		t.Fatalf("fleet dial failed: %v", err)
	}
	d := T5(200_000, 5, Budgets{Workers: 2, Fleet: f}).String()
	f.Close()
	if local != d {
		t.Errorf("T5 output depends on distribution:\n%s\nvs\n%s", local, d)
	}
	// Identical output via the in-process fallback would prove nothing:
	// the chunks must actually have crossed the process boundary.
	if log := distLog.String(); strings.Contains(log, "falling back") {
		t.Errorf("distributed sweep silently fell back in-process:\n%s", log)
	}
}

// TestSharedFleetAcrossTables is the session acceptance criterion at
// the experiment-suite level: T1, T2, T3, T5, and T6 run over ONE
// dialed fleet (Budgets.Fleet, the rvtable path) must render
// byte-identically to the in-process tables AND cost exactly one worker
// connection. T1's infeasible rows and T6's AURV runs are wire-formed,
// so those tables must actually ship jobs to the worker.
func TestSharedFleetAcrossTables(t *testing.T) {
	if testing.Short() {
		t.Skip("dials TCP worker fleets")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	var conns atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conn.Close()
				dist.Serve(conn, conn, dist.ServeOptions{})
			}()
		}
	}()

	b := smallBudgets()
	b.Workers = 2
	tables := []struct {
		name    string
		run     func(Budgets) string
		shipped bool // has wire-formed jobs that must cross to the worker
	}{
		{"T1", func(b Budgets) string { return T1(1, 2, b).String() }, true},
		{"T2", func(b Budgets) string { return T2(2, 3, b).String() }, false},
		{"T3", func(b Budgets) string { return T3(3, 2, b).String() }, true},
		{"T5", func(b Budgets) string { return T5(200_000, 5, b).String() }, false},
		{"T6", func(b Budgets) string { return T6(6, b).String() }, true},
	}
	want := make([]string, len(tables))
	for i, tb := range tables {
		want[i] = tb.run(b)
	}

	var distLog strings.Builder
	cfg := dist.Config{Hosts: []dist.Host{{Addr: l.Addr().String()}}, Stderr: &distLog}
	shared := b
	f, err := dist.Dial(cfg)
	if err != nil {
		t.Fatalf("fleet dial failed: %v", err)
	}
	defer f.Close()
	shared.Fleet = f
	// served reports the job frames the worker stream has received, as
	// of the stats pong Snapshot elicits.
	served := func() uint64 {
		snap := f.Snapshot()
		if len(snap.Slots) != 1 || snap.Slots[0].Worker == nil {
			t.Fatalf("no worker stats in the fleet snapshot: %+v", snap.Slots)
		}
		return snap.Slots[0].Worker.Served
	}
	for i, tb := range tables {
		before := served()
		if got := tb.run(shared); got != want[i] {
			t.Errorf("shared-fleet %s differs from the in-process table:\n%s\nvs\n%s", tb.name, got, want[i])
		}
		if tb.shipped && served() == before {
			t.Errorf("%s shipped no job to the worker", tb.name)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("shared fleet used %d connections for %d tables, want exactly 1", n, len(tables))
	}
	// Identical output via the in-process fallback would prove nothing.
	if log := distLog.String(); strings.Contains(log, "in-process") {
		t.Errorf("shared fleet fell back in-process:\n%s", log)
	}
}

// TestFiguresParallelMatchesSerial: the simulated figures are identical
// for any pool size.
func TestFiguresParallelMatchesSerial(t *testing.T) {
	s := FiguresDist(Budgets{Workers: 1})
	p := FiguresDist(Budgets{Workers: 8})
	for name := range s {
		if s[name] != p[name] {
			t.Errorf("%s depends on worker count", name)
		}
	}
}

func TestFiguresProduceSVG(t *testing.T) {
	figs := Figures()
	if len(figs) != 5 {
		t.Fatalf("%d figures", len(figs))
	}
	for name, doc := range figs {
		if !strings.HasPrefix(doc, "<svg") || !strings.Contains(doc, "</svg>") {
			t.Errorf("%s: not an SVG document", name)
		}
		if len(doc) < 500 {
			t.Errorf("%s: suspiciously small (%d bytes)", name, len(doc))
		}
	}
	// Fig4 and Fig5 draw simulated meetings: the rendezvous marker must be
	// present.
	if !strings.Contains(figs["fig4"], "rendezvous") {
		t.Error("fig4 missing rendezvous marker (simulation did not meet?)")
	}
	if !strings.Contains(figs["fig5"], "gap = r") {
		t.Error("fig5 missing meeting marker")
	}
}
