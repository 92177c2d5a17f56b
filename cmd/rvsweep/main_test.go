package main

import (
	"bytes"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prog"
	"repro/rendezvous"
)

// sweepCases covers the three sweep modes with their CLI-default-shaped
// ranges (scaled down for test speed).
var sweepCases = []struct {
	mode     string
	from, to float64
	steps    int
}{
	{"delay", 0.5, 32, 6},
	{"ratio", 1.1, 4, 6},
	{"radius", 0.4, 1.2, 6},
}

func TestPointsConstruction(t *testing.T) {
	for _, tc := range sweepCases {
		pts, skipped, err := Points(tc.mode, tc.from, tc.to, tc.steps)
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		if len(pts)+len(skipped) != tc.steps {
			t.Errorf("%s: %d points + %d skipped, want %d total", tc.mode, len(pts), len(skipped), tc.steps)
		}
		if len(pts) == 0 {
			t.Fatalf("%s: no valid points", tc.mode)
		}
		// Geometric spacing from..to is strictly monotone increasing.
		for i := 1; i < len(pts); i++ {
			if pts[i].Value <= pts[i-1].Value {
				t.Errorf("%s: sweep values not monotone at %d: %g then %g",
					tc.mode, i, pts[i-1].Value, pts[i].Value)
			}
		}
		if got := pts[0].Value; got != tc.from {
			t.Errorf("%s: first value %g, want %g", tc.mode, got, tc.from)
		}
		for _, p := range pts {
			if err := p.Inst.Validate(); err != nil {
				t.Errorf("%s: invalid instance at %g: %v", tc.mode, p.Value, err)
			}
		}
	}
}

func TestPointsUnknownMode(t *testing.T) {
	if _, _, err := Points("bogus", 1, 2, 3); err == nil {
		t.Fatal("no error for unknown sweep mode")
	}
	// The mode is validated even when the loop body would never run.
	if _, _, err := Points("bogus", 1, 2, 0); err == nil {
		t.Fatal("no error for unknown sweep mode with steps=0")
	}
}

// chanWriter hands every Write to the test, blocking until the test
// has consumed it — the deterministic observation point for streaming.
type chanWriter struct{ ch chan string }

func (w chanWriter) Write(p []byte) (int, error) {
	w.ch <- string(p)
	return len(p), nil
}

// TestStreamCSVRowBeforeBatchEnds pins the streaming satellite: with
// the last sweep point's simulation gated open, the first data row
// must come out of StreamCSV while that job is still running — rows
// appear as the ordered prefix completes, not after the drain.
func TestStreamCSVRowBeforeBatchEnds(t *testing.T) {
	pts, _, err := Points("delay", 0.5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}

	gate := make(chan struct{})
	last := pts[len(pts)-1].Inst
	alg := rendezvous.Algorithm{
		Name: "gated-sweep-test",
		Program: func(in rendezvous.Instance) prog.Program {
			if in == last {
				return func() prog.Cursor { <-gate; return prog.InstrsCursor() }
			}
			return prog.Instrs() // ends immediately
		},
	}

	set := SweepSettings(10_000, 2, "", 0, 0, 0, 0, 0, false)
	cw := chanWriter{ch: make(chan string)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		streamCSV(cw, "delay", pts, set, alg)
	}()

	recv := func(what string) string {
		t.Helper()
		select {
		case s := <-cw.ch:
			return s
		case <-time.After(60 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return ""
		}
	}
	if got := recv("header"); !strings.HasPrefix(got, "delay,meet_time") {
		t.Fatalf("first write is not the header: %q", got)
	}
	row0 := recv("first data row")
	if !strings.HasPrefix(row0, "0.5,") {
		t.Fatalf("first row is not point 0: %q", row0)
	}
	// The last job is still blocked on the gate, so the sweep cannot
	// have finished: the row above was observable before batch end.
	select {
	case <-done:
		t.Fatal("sweep completed while its last job was still gated")
	default:
	}
	close(gate)
	if got := recv("last data row"); !strings.HasPrefix(got, "2,") {
		t.Fatalf("last row mismatch: %q", got)
	}
	<-done
}

// TestSweepCSVEmission runs each mode under a tiny segment budget (the
// runs cap out quickly; the CSV shape is what's under test) and checks
// header, row count, and worker-count independence.
func TestSweepCSVEmission(t *testing.T) {
	const maxSeg = 2_000
	for _, tc := range sweepCases {
		pts, _, err := Points(tc.mode, tc.from, tc.to, tc.steps)
		if err != nil {
			t.Fatal(err)
		}
		doc := SweepCSV(tc.mode, pts, maxSeg, 4)
		lines := strings.Split(strings.TrimRight(doc, "\n"), "\n")
		if want := tc.mode + ",meet_time,min_gap,segments"; lines[0] != want {
			t.Errorf("%s: header %q, want %q", tc.mode, lines[0], want)
		}
		if got := len(lines) - 1; got != len(pts) {
			t.Errorf("%s: %d rows, want %d", tc.mode, got, len(pts))
		}
		for i, line := range lines[1:] {
			if got := strings.Count(line, ","); got != 3 {
				t.Errorf("%s row %d: %d commas in %q", tc.mode, i, got, line)
			}
		}
		// The emitted document must not depend on the worker count.
		if serial := SweepCSV(tc.mode, pts, maxSeg, 1); serial != doc {
			t.Errorf("%s: workers=1 and workers=4 documents differ:\n%s\nvs\n%s", tc.mode, serial, doc)
		}
	}
}

// TestHostsFileUnreachableDialsOnce pins the -hosts-file fallback: when
// the roster's only worker refuses the handshake, the sweep dials it
// exactly once, warns exactly once, and emits the local CSV. A fallback
// that kept the fleet in its settings would dial (and warn) again.
func TestHostsFileUnreachableDialsOnce(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	var dials atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			conn.Close() // no hello: the dial fails
		}
	}()
	path := filepath.Join(t.TempDir(), "hosts.txt")
	if err := os.WriteFile(path, []byte(l.Addr().String()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var logBuf bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logBuf, nil)))
	defer slog.SetDefault(prev)

	const maxSeg = 2_000
	pts, _, err := Points("delay", 0.5, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	set := SweepSettings(maxSeg, 2, l.Addr().String(), 0, 0, 0, 0, 0, false)
	if err := StreamCSVHostsFile(&got, "delay", pts, set, path); err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("unreachable fleet dialed %d times, want 1", n)
	}
	if n := strings.Count(logBuf.String(), "level=WARN"); n != 1 {
		t.Errorf("%d warnings, want 1:\n%s", n, logBuf.String())
	}
	if want := SweepCSV("delay", pts, maxSeg, 2); got.String() != want {
		t.Errorf("fallback CSV differs from the local run:\n%s\nvs\n%s", got.String(), want)
	}
}
