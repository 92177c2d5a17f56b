// Multi-tenant scheduler tests (PR 10): concurrent dispatches over one
// shared fleet must each stay byte-identical to their own in-process
// serial run — Stats.Executed included — under clean schedules, chaos
// faults, and mid-session membership changes, for every fairness
// policy. This is the differential acceptance criterion of the
// multi-tenant tentpole: tenancy, stealing, and fairness are pure
// scheduling, so no tenant can ever observe another.
package dist

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/inst"
	"repro/internal/measure"
	"repro/internal/sim"
)

// drawInstancesSeed is drawInstances with the generator seed exposed,
// so concurrent tenants can carry distinct workloads.
func drawInstancesSeed(seed int64, n int) []inst.Instance {
	g := inst.NewGen(seed)
	var ins []inst.Instance
	for _, c := range []inst.Class{inst.ClassMirrorInterior, inst.ClassLatecomer} {
		ins = append(ins, g.DrawN(c, n)...)
	}
	return ins
}

// tenantRefs holds the in-process serial references every multi-tenant
// schedule must reproduce: two distinct batches and one sweep.
type tenantRefs struct {
	insA, insB   []inst.Instance
	set          sim.Settings
	wantA, wantB []sim.Result
	statsA       batch.Stats
	statsB       batch.Stats
	nSweep       int
	eps          []float64
	box          measure.Box
	wantSweep    measure.Stats
}

func newTenantRefs(t *testing.T) tenantRefs {
	t.Helper()
	r := tenantRefs{
		insA:   drawInstancesSeed(7, 2),
		insB:   drawInstancesSeed(11, 2),
		set:    testSettings(),
		nSweep: 150_000, // 3 chunks
		eps:    []float64{0.25, 0.5},
		box:    measure.DefaultBox(),
	}
	r.insA = append(r.insA, r.insA[0]) // a duplicate keeps memoization in the frame
	r.wantA, r.statsA = batch.Run(aurvJobs(t, r.insA, r.set), 1)
	r.wantB, r.statsB = batch.Run(aurvJobs(t, r.insB, r.set), 1)
	r.wantSweep = measure.SweepParallel(r.nSweep, r.eps, r.box, 5, 1)
	return r
}

// runTenants launches the three dispatches concurrently over the
// session and pins every tenant's bytes and Executed count against the
// serial references. The OrFallback entry points are used so faulted
// schedules (chaos, total fleet loss mid-change) still produce a
// verdict — determinism makes the splice exact, so the assertion is
// the same either way.
func runTenants(t *testing.T, f *Fleet, r tenantRefs) {
	t.Helper()
	var wg sync.WaitGroup
	var gotA, gotB []sim.Result
	var stA, stB batch.Stats
	var gotSweep measure.Stats
	wg.Add(3)
	go func() { defer wg.Done(); gotA, stA = f.RunOrFallback(aurvJobs(t, r.insA, r.set), 1) }()
	go func() { defer wg.Done(); gotB, stB = f.RunOrFallback(aurvJobs(t, r.insB, r.set), 1) }()
	go func() { defer wg.Done(); gotSweep = f.SweepOrFallback(r.nSweep, r.eps, r.box, 5, 1) }()
	wg.Wait()
	if !bytes.Equal(encodeAll(gotA), encodeAll(r.wantA)) {
		t.Error("tenant A results differ from in-process serial")
	}
	if !bytes.Equal(encodeAll(gotB), encodeAll(r.wantB)) {
		t.Error("tenant B results differ from in-process serial")
	}
	if stA.Executed != r.statsA.Executed {
		t.Errorf("tenant A Executed = %d, want %d", stA.Executed, r.statsA.Executed)
	}
	if stB.Executed != r.statsB.Executed {
		t.Errorf("tenant B Executed = %d, want %d", stB.Executed, r.statsB.Executed)
	}
	if !reflect.DeepEqual(gotSweep, r.wantSweep) {
		t.Error("sweep tenant diverges from in-process")
	}
}

// newestFirst claims from the youngest eligible dispatch — the reverse
// of FIFO, so the differential also covers a non-FIFO claim order.
type newestFirst struct{}

func (newestFirst) Pick(views []DispatchView) int { return len(views) - 1 }

// TestConcurrentDispatchesDifferential is the tentpole differential:
// three tenants (two batches + one sweep) run concurrently over one
// shared two-worker fleet under each fairness policy, and each
// tenant's bytes must match its own serial run exactly.
func TestConcurrentDispatchesDifferential(t *testing.T) {
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl.Close()
	go NewServer(ServeOptions{}).Serve(wl)
	wl2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl2.Close()
	go NewServer(ServeOptions{}).Serve(wl2)

	r := newTenantRefs(t)
	policies := []struct {
		name string
		fair Fairness
	}{
		{"fifo-default", nil},
		{"fifo", FIFO{}},
		{"newest-first", newestFirst{}},
	}
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Dial(Config{
				Hosts:    tcpHosts(wl.Addr().String(), wl2.Addr().String()),
				Fairness: tc.fair,
			})
			if err != nil {
				t.Fatalf("fleet dial failed: %v", err)
			}
			defer f.Close()
			runTenants(t, f, r)
		})
	}
}

// TestConcurrentDispatchesUnderChaos reruns the multi-tenant
// differential with one of the two workers behind the chaos rig:
// faults strike mid-tenancy, the recovery paths (requeue, respawn,
// stall, fallback splice) run with several dispatches live, and every
// tenant must still emerge byte-identical.
func TestConcurrentDispatchesUnderChaos(t *testing.T) {
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl.Close()
	go NewServer(ServeOptions{}).Serve(wl)

	r := newTenantRefs(t)
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p, err := NewChaosProxy(wl.Addr().String(), ChaosPlan{Scripts: RandomScripts(seed, 8)})
			if err != nil {
				t.Skipf("loopback listen unavailable: %v", err)
			}
			defer p.Close()
			var log bytes.Buffer
			f, err := Dial(Config{
				Hosts:        tcpHosts(p.Addr(), wl.Addr().String()),
				Window:       2,
				RedialWait:   2 * time.Millisecond,
				StallTimeout: 250 * time.Millisecond,
				MaxRespawns:  4,
				Stderr:       &log,
			})
			if err != nil {
				t.Fatalf("fleet dial failed: %v", err)
			}
			defer f.Close()
			runTenants(t, f, r)
			if t.Failed() {
				t.Logf("coordinator log:\n%s", log.String())
			}
		})
	}
}

// TestConcurrentDispatchesMembershipChange grows and shrinks the fleet
// while the tenants are live: the session starts on one worker, a
// second joins mid-flight (AddHost), and the original drains out
// (Retire) — its in-flight jobs requeue to the newcomer. Bytes must
// not move.
func TestConcurrentDispatchesMembershipChange(t *testing.T) {
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl.Close()
	go NewServer(ServeOptions{}).Serve(wl)
	wl2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl2.Close()
	go NewServer(ServeOptions{}).Serve(wl2)

	r := newTenantRefs(t)
	f, err := Dial(Config{Hosts: tcpHosts(wl.Addr().String()), Window: 1})
	if err != nil {
		t.Fatalf("fleet dial failed: %v", err)
	}
	defer f.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Let the dispatches claim their first jobs on the original
		// worker before the membership changes land mid-flight.
		time.Sleep(20 * time.Millisecond)
		if err := f.AddHost(Host{Addr: wl2.Addr().String()}); err != nil {
			t.Errorf("AddHost failed: %v", err)
			return
		}
		if err := f.Retire(wl.Addr().String()); err != nil {
			t.Errorf("Retire failed: %v", err)
		}
	}()
	runTenants(t, f, r)
	<-done
	if n := f.Size(); n != 1 {
		t.Fatalf("fleet size after add+retire = %d, want 1", n)
	}
}

// TestSnapshotDuringConcurrentDispatches pins the probe-outside-lock
// design: Snapshot taken while several tenants are mid-dispatch must
// return promptly (the matcher consuming pongs needs the scheduler
// lock Snapshot releases), see both slots, and never perturb a byte.
func TestSnapshotDuringConcurrentDispatches(t *testing.T) {
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl.Close()
	go NewServer(ServeOptions{}).Serve(wl)
	wl2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl2.Close()
	go NewServer(ServeOptions{}).Serve(wl2)

	r := newTenantRefs(t)
	f, err := Dial(Config{Hosts: tcpHosts(wl.Addr().String(), wl2.Addr().String())})
	if err != nil {
		t.Fatalf("fleet dial failed: %v", err)
	}
	defer f.Close()

	stop := make(chan struct{})
	snapped := make(chan FleetSnapshot, 16)
	go func() {
		for {
			select {
			case <-stop:
				close(snapped)
				return
			default:
				s := f.Snapshot()
				select {
				case snapped <- s:
				default:
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
	runTenants(t, f, r)
	close(stop)
	n := 0
	for s := range snapped {
		n++
		if len(s.Slots) != 2 {
			t.Fatalf("snapshot saw %d slots, want 2", len(s.Slots))
		}
	}
	if n == 0 {
		t.Fatal("no snapshot completed while dispatches were live")
	}
}

// TestMembershipErrors pins the API edges: adding an address that
// already has an active slot and retiring an unknown address are
// errors; a retired address can be re-added with a fresh budget.
func TestMembershipErrors(t *testing.T) {
	addr, _ := countingWorker(t)
	f, err := Dial(Config{Hosts: tcpHosts(addr)})
	if err != nil {
		t.Fatalf("fleet dial failed: %v", err)
	}
	defer f.Close()

	if err := f.AddHost(Host{Addr: addr}); err == nil || !strings.Contains(err.Error(), "already has an active slot") {
		t.Fatalf("duplicate AddHost error = %v, want 'already has an active slot'", err)
	}
	if err := f.Retire("no-such-host:1"); err == nil || !strings.Contains(err.Error(), "no active slot") {
		t.Fatalf("unknown Retire error = %v, want 'no active slot'", err)
	}
	if err := f.Retire(addr); err != nil {
		t.Fatalf("Retire(%s) failed: %v", addr, err)
	}
	if n := f.Size(); n != 0 {
		t.Fatalf("size after retiring the only slot = %d, want 0", n)
	}
	if err := f.AddHost(Host{Addr: addr}); err != nil {
		t.Fatalf("re-adding a retired address failed: %v", err)
	}
	if n := f.Size(); n != 1 {
		t.Fatalf("size after re-add = %d, want 1", n)
	}
}

// TestWatchHostsReconcile drives live membership through the hosts
// file: the watcher grows the fleet when an address appears, shrinks
// it when one disappears, and a batch over the churned fleet stays
// byte-identical.
func TestWatchHostsReconcile(t *testing.T) {
	addr1, _ := countingWorker(t)
	addr2, _ := countingWorker(t)

	path := filepath.Join(t.TempDir(), "hosts")
	write := func(content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("# fleet roster\n" + addr1 + "\n")

	hosts, err := LoadHostsFile(path)
	if err != nil {
		t.Fatalf("LoadHostsFile failed: %v", err)
	}
	f, err := Dial(Config{Hosts: hosts})
	if err != nil {
		t.Fatalf("fleet dial failed: %v", err)
	}
	defer f.Close()
	stop, err := f.WatchHosts(path, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("WatchHosts failed: %v", err)
	}
	defer stop()

	waitSize := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for f.Size() != want {
			if time.Now().After(deadline) {
				t.Fatalf("fleet size = %d, want %d after hosts-file edit", f.Size(), want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	write(addr1 + "\n" + addr2 + "\n")
	waitSize(2)
	write("# shrink back\n" + addr2 + "\n")
	waitSize(1)

	ins := drawInstances(2)
	set := testSettings()
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)
	got, _, err := f.Run(aurvJobs(t, ins, set), 1)
	if err != nil {
		t.Fatalf("batch over churned fleet failed: %v", err)
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("batch over churned fleet differs from in-process serial")
	}
}
