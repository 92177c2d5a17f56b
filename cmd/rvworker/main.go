// Command rvworker is the worker half of the distributed batch engine:
// it executes simulation jobs shipped to it by a coordinator
// (rendezvous.SimulateBatch with Settings.Hosts/WorkerProcs, or the
// -hosts/-worker flags of rvsweep/rvtable/rvfigures) and streams the
// results back bit-exactly over the wire codec.
//
// Two transports:
//
//	rvworker                 # serve one coordinator on stdin/stdout
//	rvworker -listen :9101   # serve any number of coordinators over TCP
//
// Jobs on one stream execute on an in-worker pool sized by the jobs'
// forwarded Parallelism setting (cap or force it with -pool), so a
// single worker process saturates its host when the coordinator's send
// window keeps the pool fed; scale further by running more workers (or
// letting the coordinator spawn subprocess workers, which re-execute
// the coordinator binary itself — every cmd/ main of this repo can
// serve as its own worker).
//
// Determinism: a worker computes exactly what the coordinator would
// have computed in-process — algorithms are rebuilt by registered name
// from the same code, inputs and outputs cross the wire bit-for-bit —
// so distributing a batch never changes a single reported number.
//
// Shutdown: SIGTERM or SIGINT drains gracefully — stop accepting new
// streams, let in-flight executors finish, flush the reply batcher,
// exit 0 — so a supervised worker (systemd stop, container rollout)
// never dies mid-frame and its coordinators see a clean EOF, not a
// torn frame.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/wire"
)

func main() {
	var (
		listen   = flag.String("listen", "", "TCP address to serve workers on (empty: serve stdin/stdout)")
		list     = flag.Bool("list", false, "print the registered algorithm names and exit")
		pool     = flag.Int("pool", 0, "in-worker execution pool per connection (0 = honor the stream's pool hint or the jobs' forwarded Parallelism; <0 = serial)")
		compress = flag.Bool("compress", true, "accept per-connection flate compression when the coordinator offers it (-compress=false refuses, forcing raw frames)")
		verbose  = flag.Bool("v", false, "log one line per served stream (peer and job count) to stderr")
		metrics  = flag.String("metrics", "", "HTTP address to expose the flight recorder on (/metrics, /statusz; empty: off)")
		pprofOn  = flag.Bool("pprof", false, "also expose /debug/pprof/ on the -metrics address")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	)
	flag.Parse()

	if err := obs.InitLogging(os.Stderr, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "rvworker:", err)
		os.Exit(2)
	}

	if *list {
		for _, name := range wire.Algorithms() {
			fmt.Println(name)
		}
		return
	}
	if *metrics != "" {
		addr, err := obs.Serve(*metrics, *pprofOn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rvworker:", err)
			os.Exit(1)
		}
		slog.Info("rvworker: metrics listening", "addr", addr.String(), "pprof", *pprofOn)
	}
	opts := dist.ServeOptions{Pool: *pool, NoCompress: !*compress}
	if *verbose {
		opts.Log = slog.Default()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	var draining atomic.Bool

	var err error
	if *listen != "" {
		l, lerr := net.Listen("tcp", *listen)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, "rvworker:", lerr)
			os.Exit(1)
		}
		slog.Info("rvworker: listening", "addr", l.Addr().String())
		srv := dist.NewServer(opts)
		drained := make(chan struct{})
		go func() {
			<-sigc
			draining.Store(true)
			slog.Info("rvworker: signal received; draining")
			flushed := srv.Shutdown()
			slog.Info("rvworker: drained", "jobs", flushed)
			close(drained)
		}()
		err = srv.Serve(l)
		if draining.Load() {
			// Serve and Shutdown unblock on the same drain barrier;
			// don't let main's return race the drain goroutine's final
			// log line out of existence.
			<-drained
		}
	} else {
		var atSignal atomic.Uint64
		go func() {
			<-sigc
			draining.Store(true)
			atSignal.Store(dist.RepliesFlushed())
			slog.Info("rvworker: signal received; draining")
			// Unblock the pending stdin read; Serve's finish path
			// drains the executors and flushes before returning. Works
			// on pipes and terminals on the platforms we serve from;
			// where it doesn't, the fallback is the old behavior (the
			// read stays blocked until the coordinator closes it).
			os.Stdin.SetReadDeadline(time.Now())
		}()
		opts.Name = "stdio"
		err = dist.Serve(os.Stdin, os.Stdout, opts)
		if draining.Load() {
			err = nil // the induced read-deadline error is the drain, not a fault
			slog.Info("rvworker: drained", "jobs", dist.RepliesFlushed()-atSignal.Load())
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvworker:", err)
		os.Exit(1)
	}
}
