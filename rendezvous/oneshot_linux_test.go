//go:build linux

package rendezvous_test

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/sim"
	"repro/rendezvous"
)

// TestOneShotLeavesNothingBehind: a SimulateBatch or SimulateBatchStream
// call whose settings name a fleet dials it, runs on it, and closes it
// before the slice returns or the channel closes — so by then no
// worker process is left (running or unreaped), and no goroutine of
// the session outlives the call.
func TestOneShotLeavesNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	ins := distInstances(t)
	alg := rendezvous.AlmostUniversalRV()
	want := encodeAll(t, rendezvous.SimulateBatch(ins, alg, distSettings()))
	dset := distSettings()
	dset.WorkerProcs = 2

	for _, tc := range []struct {
		name string
		run  func() []sim.Result
	}{
		{"batch", func() []sim.Result { return rendezvous.SimulateBatch(ins, alg, dset) }},
		{"stream", func() []sim.Result {
			var got []sim.Result
			for r := range rendezvous.SimulateBatchStream(ins, alg, dset) {
				got = append(got, r)
			}
			return got
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := leakcheck.Goroutines(t)
			tx0, fallbacks0 := counter(t, "rv_wire_tx_bytes_total"), counter(t, "rv_dist_fallbacks_total")
			got := tc.run()
			if pids := childPids(t); len(pids) > 0 {
				t.Errorf("worker pids %v still exist after the call returned", pids)
			}
			if !bytes.Equal(encodeAll(t, got), want) {
				t.Error("one-shot results differ from in-process")
			}
			if counter(t, "rv_wire_tx_bytes_total") == tx0 {
				t.Error("no bytes reached a worker: the call never used its fleet")
			}
			if d := counter(t, "rv_dist_fallbacks_total") - fallbacks0; d != 0 {
				t.Errorf("%v fallbacks, want 0", d)
			}
			done()
		})
	}
}

// childPids lists the processes whose parent is this test binary,
// zombies included.
func childPids(t *testing.T) []int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	self := strconv.Itoa(os.Getpid())
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue // exited while we looked
		}
		// pid (comm) state ppid …; comm may hold spaces, so split after
		// its closing parenthesis.
		fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(fields) > 1 && fields[1] == self {
			pids = append(pids, pid)
		}
	}
	return pids
}
