package dist

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/leakcheck"
	"repro/internal/measure"
)

// TestLifecyclesLeakNothing nests the coordinator-side lifecycles — a
// TCP worker Server, a ChaosProxy in front of it, and a Fleet dialed
// through the proxy that runs a batch and a sweep — and checks, as
// each ends innermost first (Fleet.Close, ChaosProxy.Close,
// Server.Shutdown), that every goroutine it started is gone.
func TestLifecyclesLeakNothing(t *testing.T) {
	serverDone := leakcheck.Goroutines(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	srv := NewServer(ServeOptions{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	proxyDone := leakcheck.Goroutines(t)
	p, err := NewChaosProxy(l.Addr().String(), ChaosPlan{})
	if err != nil {
		t.Fatalf("proxy start failed: %v", err)
	}

	fleetDone := leakcheck.Goroutines(t)
	f, err := Dial(Config{Hosts: tcpHosts(p.Addr())})
	if err != nil {
		t.Fatalf("fleet dial failed: %v", err)
	}
	ins := drawInstances(2)
	set := testSettings()
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)
	got, _, err := f.Run(aurvJobs(t, ins, set), 1)
	if err != nil {
		t.Fatalf("batch failed: %v", err)
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("batch results differ from in-process serial")
	}
	if _, err := f.Sweep(150_000, []float64{0.5}, measure.DefaultBox(), 5, 1); err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	f.Close()
	fleetDone()

	p.Close()
	proxyDone()

	srv.Shutdown()
	if err := <-served; err != nil {
		t.Errorf("Serve after Shutdown: %v", err)
	}
	serverDone()
}

// TestWatchHostsStopConcurrent: the watch's stop function is safe to
// call from two goroutines at once (run under -race), and a watched
// fleet that is stopped and then closed leaves no goroutine behind.
// (The baseline precedes the dial: a fresh fleet's runners start their
// own goroutines asynchronously.)
func TestWatchHostsStopConcurrent(t *testing.T) {
	addr, _ := countingWorker(t)
	path := filepath.Join(t.TempDir(), "hosts")
	if err := os.WriteFile(path, []byte(addr+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	done := leakcheck.Goroutines(t)
	f, err := Dial(Config{Hosts: tcpHosts(addr)})
	if err != nil {
		t.Fatalf("fleet dial failed: %v", err)
	}
	stop, err := f.WatchHosts(path, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("watch failed: %v", err)
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stop()
		}()
	}
	wg.Wait()
	stop() // and still idempotent afterwards
	f.Close()
	done()
}
