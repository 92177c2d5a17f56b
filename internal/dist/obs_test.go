// Flight-recorder tests at the dispatch layer: the differential proof
// that observation does not perturb the computation (the load-bearing
// guarantee of internal/obs — DESIGN.md §11), and the coordinator-side
// view of worker stats piggybacked on pong frames (wire v5).

package dist

import (
	"bytes"
	"testing"

	"repro/internal/batch"
	"repro/internal/obs"
)

// TestMetricsOnOffDifferential is the observation-purity proof: the
// same distributed batch run with the flight recorder enabled and
// disabled — and the serial in-process run — produce byte-identical
// results and identical executed counts. Metrics may count anything
// they like; they may change nothing.
func TestMetricsOnOffDifferential(t *testing.T) {
	ins := drawInstances(3)
	ins = append(ins, ins...) // duplicates exercise the memoization accounting too
	set := testSettings()

	wantRes, wantStats := batch.Run(aurvJobs(t, ins, set), 1)
	want := encodeAll(wantRes)

	run := func(on bool) ([]byte, int) {
		obs.SetEnabled(on)
		res, st, err := runOnce(aurvJobs(t, ins, set), 1, Config{Procs: 2, Window: 2})
		if err != nil {
			t.Fatalf("distributed run (metrics=%v): %v", on, err)
		}
		return encodeAll(res), st.Executed
	}
	defer obs.SetEnabled(true)
	offBytes, offExec := run(false)
	onBytes, onExec := run(true)

	if !bytes.Equal(offBytes, want) || !bytes.Equal(onBytes, want) {
		t.Fatalf("distributed results diverge from serial run (metrics-off match: %v, metrics-on match: %v)",
			bytes.Equal(offBytes, want), bytes.Equal(onBytes, want))
	}
	if offExec != wantStats.Executed || onExec != wantStats.Executed {
		t.Fatalf("Executed diverges: serial %d, metrics-off %d, metrics-on %d",
			wantStats.Executed, offExec, onExec)
	}
}

// TestFleetSnapshot runs a batch over a held-open session and checks
// the snapshot: the slot is live, and the worker's piggybacked stats
// arrive over the wire with a served count covering the batch.
func TestFleetSnapshot(t *testing.T) {
	ins := drawInstances(2)
	set := testSettings()

	f, err := Dial(Config{Procs: 1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer f.Close()
	res, _, err := f.Run(aurvJobs(t, ins, set), 1)
	if err != nil {
		t.Fatalf("Fleet.Run: %v", err)
	}
	if len(res) != len(ins) {
		t.Fatalf("got %d results, want %d", len(res), len(ins))
	}

	snap := f.Snapshot()
	if len(snap.Slots) != 1 {
		t.Fatalf("got %d slots, want 1", len(snap.Slots))
	}
	s := snap.Slots[0]
	if !s.Live {
		t.Fatalf("slot %q not live in snapshot", s.Name)
	}
	if s.Worker == nil {
		t.Fatalf("slot %q carries no worker stats (pong probe failed)", s.Name)
	}
	if s.Worker.Served < uint64(len(ins)) {
		t.Fatalf("worker served %d jobs, want >= %d", s.Worker.Served, len(ins))
	}
	if s.Worker.Pings == 0 {
		t.Fatalf("worker answered the snapshot probe but counts 0 pings")
	}
	if !snap.Metrics.Enabled {
		t.Fatalf("metrics snapshot reports recorder disabled")
	}
}
