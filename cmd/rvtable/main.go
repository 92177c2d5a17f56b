// Command rvtable regenerates the experiment tables T1–T5 of the
// reproduction (see DESIGN.md §4 and EXPERIMENTS.md).
//
// Usage:
//
//	rvtable                  # all tables
//	rvtable -exp T3 -csv     # one table, CSV output
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"repro/internal/dist"
	"repro/internal/exps"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	dist.MaybeServeStdio() // single-binary deploys: -worker re-executes rvtable itself

	var (
		exp       = flag.String("exp", "all", "table id: T1..T6 or all")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		seed      = flag.Int64("seed", 1, "base random seed")
		n         = flag.Int("n", 5, "samples per class/type")
		workers   = flag.Int("workers", 0, "batch-pool size, in-process and per worker process (0 = GOMAXPROCS); output is identical for every value")
		procs     = flag.Int("worker", 0, "local worker subprocesses for wire-formed jobs (distributed execution)")
		hosts     = flag.String("hosts", "", "comma-separated rvworker -listen endpoints, each addr or addr*pool (distributed execution)")
		hostsFile = flag.String("hosts-file", "", "file of rvworker endpoints (-hosts syntax, newline- or comma-separated, '#' comments), watched for edits while the run is live; mutually exclusive with -hosts")
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

	if lerr := obs.InitLogging(os.Stderr, *logLevel); lerr != nil {
		fmt.Fprintln(os.Stderr, lerr)
		os.Exit(2)
	}
	if *metrics != "" {
		addr, merr := obs.Serve(*metrics, *pprofOn)
		if merr != nil {
			fmt.Fprintln(os.Stderr, merr)
			os.Exit(1)
		}
		slog.Info("rvtable: metrics listening", "addr", addr.String(), "pprof", *pprofOn)
	}

	if *hosts != "" && *hostsFile != "" {
		fmt.Fprintln(os.Stderr, "rvtable: -hosts and -hosts-file are mutually exclusive")
		os.Exit(2)
	}
	hostList, err := dist.ParseHosts(*hosts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *hostsFile != "" {
		if hostList, err = dist.LoadHostsFile(*hostsFile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	b := exps.DefaultBudgets()
	b.Workers = *workers
	cfg := dist.Config{
		Procs: *procs, Hosts: hostList,
		Window: *window, MaxWindow: *maxWindow,
		StallTimeout: *stall, MaxJobRequeues: *requeues,
		Compress: *compress,
	}
	gens := map[string]func() *report.Table{
		"T1": func() *report.Table { return exps.T1(*seed, *n, b) },
		"T2": func() *report.Table { return exps.T2(*seed+1, *n, b) },
		"T3": func() *report.Table { return exps.T3(*seed+2, min(*n, 3), b) },
		"T4": func() *report.Table { return exps.T4(*seed+3, b) },
		"T5": func() *report.Table { return exps.T5(2_000_000, *seed+4, b) },
		"T6": func() *report.Table { return exps.T6(*seed+5, b) },
	}
	order := []string{"T1", "T2", "T3", "T4", "T5", "T6"}

	want := strings.ToUpper(*exp)
	if want != "ALL" {
		if _, ok := gens[want]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want T1..T6 or all)\n", *exp)
			os.Exit(2)
		}
	}

	// One fleet session for the whole invocation: the tables share the
	// dialed connections (one handshake per host for all of T1–T6)
	// instead of assembling and tearing down a fleet per table. An
	// unreachable fleet degrades to in-process execution for the whole
	// run (one warning, no re-dial per table), which determinism makes
	// invisible in the tables.
	if cfg.Enabled() {
		if f, derr := dist.Dial(cfg); derr != nil {
			slog.Warn("rvtable: fleet unavailable (running in-process)", "err", derr)
		} else {
			b.Fleet = f
			defer f.Close()
			if *hostsFile != "" {
				// Live membership: edits to the hosts file grow or shrink
				// the session while tables are still generating.
				stop, werr := f.WatchHosts(*hostsFile, 0)
				if werr != nil {
					fmt.Fprintln(os.Stderr, werr)
					os.Exit(1)
				}
				defer stop()
			}
		}
	}

	for _, id := range order {
		if want != "ALL" && want != id {
			continue
		}
		t := gens[id]()
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
}
