package dist

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/batch"
)

// The latency rig is the chaos proxy's Delay script: a fixed one-way
// delay in each direction that preserves pipelining — frames are
// delivered delay-after-arrival (a delay line), not rate-limited —
// which is exactly what WAN latency does to a byte stream. Windowed
// dispatch exists to hide this; the test below measures that it does.

// latencyProxy wraps the chaos rig's delay line in the old helper
// shape: a loopback address forwarding to target with `delay` of
// one-way latency each direction.
func latencyProxy(t *testing.T, target string, delay time.Duration) string {
	t.Helper()
	p, err := NewChaosProxy(target, ChaosPlan{Default: ConnScript{Delay: delay}})
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	t.Cleanup(p.Close)
	return p.Addr()
}

// TestWindowHidesLatency is the PR's throughput acceptance criterion:
// against a worker behind simulated network latency, a 4-deep window
// must finish the batch at least twice as fast as synchronous
// (window=1) dispatch — while producing byte-identical results. With 8
// jobs whose compute time is negligible next to a 25 ms one-way delay,
// window=1 pays ~8 round trips serially and window=4 pays ~2, so the
// expected ratio is ~4×; asserting ≥2× leaves headroom for scheduler
// noise on a loaded CI host.
func TestWindowHidesLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps through simulated network latency")
	}
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl.Close()
	go NewServer(ServeOptions{}).Serve(wl)

	const delay = 25 * time.Millisecond
	addr := latencyProxy(t, wl.Addr().String(), delay)

	ins := drawInstances(4) // 8 distinct instances
	set := testSettings()
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)

	timed := func(label string, cfg Config) time.Duration {
		cfg.Hosts = tcpHosts(addr)
		cfg.MaxRespawns = -1
		start := time.Now()
		got, _, err := runOnce(aurvJobs(t, ins, set), 1, cfg)
		if err != nil {
			t.Fatalf("%s run failed: %v", label, err)
		}
		if !bytes.Equal(encodeAll(got), encodeAll(want)) {
			t.Fatalf("%s results differ from in-process serial", label)
		}
		return time.Since(start)
	}

	sync := timed("window=1", Config{Window: 1})
	pipe := timed("window=4", Config{Window: 4})
	// Adaptive (Window=0): starts at the default window and may grow
	// from observed RTT/service samples — through real latency it must
	// beat synchronous dispatch just like a fixed deep window does.
	adaptive := timed("adaptive", Config{MaxWindow: 8})
	t.Logf("window=1: %v, window=4: %v (%.1fx), adaptive: %v (%.1fx)",
		sync, pipe, float64(sync)/float64(pipe), adaptive, float64(sync)/float64(adaptive))
	if pipe*2 > sync {
		t.Fatalf("windowed dispatch did not hide latency: window=1 took %v, window=4 took %v (want ≥2x)", sync, pipe)
	}
	if adaptive*2 > sync {
		t.Fatalf("adaptive dispatch did not hide latency: window=1 took %v, adaptive took %v (want ≥2x)", sync, adaptive)
	}
}
