// Command rvsweep emits CSV series of rendezvous time versus one swept
// instance parameter — the data behind the scaling benchmarks (meeting
// time vs delay, clock ratio, or visibility radius). The points run in
// parallel on a worker pool — or across worker processes/hosts with
// -worker/-hosts — and rows stream out as the ordered result prefix
// completes. The emitted CSV is byte-identical for every -workers,
// -worker, and -hosts value.
//
// Usage:
//
//	rvsweep -sweep delay -from 0.5 -to 32 -steps 8
//	rvsweep -sweep ratio -from 1.1 -to 4 -steps 8
//	rvsweep -sweep radius -from 0.4 -to 1.2 -steps 8 -workers 4
//	rvsweep -sweep delay -steps 8 -worker 2            # 2 local worker processes
//	rvsweep -sweep delay -hosts host1:9101,host2:9101  # remote rvworker fleet
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"repro/internal/dist"
	"repro/internal/obs"
)

func main() {
	dist.MaybeServeStdio() // single-binary deploys: -worker re-executes rvsweep itself

	var (
		sweep     = flag.String("sweep", "delay", "parameter: delay | ratio | radius")
		from      = flag.Float64("from", 0.5, "sweep start")
		to        = flag.Float64("to", 32, "sweep end")
		steps     = flag.Int("steps", 8, "number of points (geometric spacing)")
		seg       = flag.Int("max-seg", 400_000_000, "segment budget per run")
		workers   = flag.Int("workers", 0, "batch-pool size, in-process and per worker process (0 = GOMAXPROCS)")
		procs     = flag.Int("worker", 0, "local worker subprocesses to spawn (distributed execution)")
		hosts     = flag.String("hosts", "", "comma-separated rvworker -listen endpoints, each addr or addr*pool (distributed execution)")
		hostsFile = flag.String("hosts-file", "", "file of rvworker endpoints (-hosts syntax, newline- or comma-separated, '#' comments), watched for edits while the sweep is live; mutually exclusive with -hosts")
		window    = flag.Int("window", 0, "jobs in flight per worker connection (0 = adaptive; 1 = synchronous)")
		maxWindow = flag.Int("max-window", 0, "adaptive window growth cap per connection (0 = default; <0 = fixed default window)")
		stall     = flag.Duration("stall", 0, "liveness deadline for a silent worker connection with jobs in flight (0 = 30s default; <0 = disabled)")
		requeues  = flag.Int("max-requeues", 0, "distinct workers a job may kill or stall before it is quarantined as a poison job (0 = 2 default; <0 = disabled)")
		compress  = flag.Bool("compress", false, "negotiate flate compression with TCP workers (WAN links; output is identical either way)")
		metrics   = flag.String("metrics", "", "HTTP address to expose the flight recorder on (/metrics, /statusz; empty: off)")
		pprofOn   = flag.Bool("pprof", false, "also expose /debug/pprof/ on the -metrics address")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	)
	flag.Parse()

	if err := obs.InitLogging(os.Stderr, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *metrics != "" {
		addr, merr := obs.Serve(*metrics, *pprofOn)
		if merr != nil {
			fmt.Fprintln(os.Stderr, merr)
			os.Exit(1)
		}
		slog.Info("rvsweep: metrics listening", "addr", addr.String(), "pprof", *pprofOn)
	}

	// Validate -hosts upfront (the parse happens again inside the batch
	// path): a malformed host:port*pool hint must exit 2 like rvtable
	// and rvfigures, not silently run the whole sweep in-process.
	if _, err := dist.ParseHosts(*hosts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *hosts != "" && *hostsFile != "" {
		fmt.Fprintln(os.Stderr, "rvsweep: -hosts and -hosts-file are mutually exclusive")
		os.Exit(2)
	}
	hostStr := *hosts
	if *hostsFile != "" {
		fileHosts, ferr := dist.LoadHostsFile(*hostsFile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(2)
		}
		hostStr = dist.FormatHosts(fileHosts)
	}

	pts, skipped, err := Points(*sweep, *from, *to, *steps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, s := range skipped {
		fmt.Fprintln(os.Stderr, s)
	}
	// Unbuffered stdout: Fprintf issues one Write per row, so each row
	// is visible (even through a pipe) the moment its result prefix
	// completes.
	set := SweepSettings(*seg, *workers, hostStr, *procs, *window, *maxWindow, *stall, *requeues, *compress)
	if *hostsFile == "" {
		StreamCSV(os.Stdout, *sweep, pts, set)
		return
	}
	if err := StreamCSVHostsFile(os.Stdout, *sweep, pts, set, *hostsFile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
