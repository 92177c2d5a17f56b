// Command rvfigures regenerates the paper's five figures as SVG files
// drawn from computed geometry and simulated trajectories.
//
// Usage:
//
//	rvfigures -out figures/
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"repro/internal/dist"
	"repro/internal/exps"
	"repro/internal/obs"
)

func main() {
	dist.MaybeServeStdio() // single-binary deploys: -worker re-executes rvfigures itself

	out := flag.String("out", "figures", "output directory")
	workers := flag.Int("workers", 0, "batch-pool size for simulated figures, in-process and per worker process (0 = GOMAXPROCS)")
	procs := flag.Int("worker", 0, "local worker subprocesses for wire-formed jobs (distributed execution)")
	hosts := flag.String("hosts", "", "comma-separated rvworker -listen endpoints, each addr or addr*pool (distributed execution)")
	hostsFile := flag.String("hosts-file", "", "file of rvworker endpoints (-hosts syntax, newline- or comma-separated, '#' comments), watched for edits while the run is live; mutually exclusive with -hosts")
	window := flag.Int("window", 0, "jobs in flight per worker connection (0 = adaptive; 1 = synchronous)")
	maxWindow := flag.Int("max-window", 0, "adaptive window growth cap per connection (0 = default; <0 = fixed default window)")
	stall := flag.Duration("stall", 0, "liveness deadline for a silent worker connection with jobs in flight (0 = 30s default; <0 = disabled)")
	requeues := flag.Int("max-requeues", 0, "distinct workers a job may kill or stall before it is quarantined as a poison job (0 = 2 default; <0 = disabled)")
	compress := flag.Bool("compress", false, "negotiate flate compression with TCP workers (WAN links; output is identical either way)")
	metrics := flag.String("metrics", "", "HTTP address to expose the flight recorder on (/metrics, /statusz; empty: off)")
	pprofOn := flag.Bool("pprof", false, "also expose /debug/pprof/ on the -metrics address")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
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
		slog.Info("rvfigures: metrics listening", "addr", addr.String(), "pprof", *pprofOn)
	}

	if *hosts != "" && *hostsFile != "" {
		fmt.Fprintln(os.Stderr, "rvfigures: -hosts and -hosts-file are mutually exclusive")
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

	// One fleet session for all figures (see rvtable): dial once, share
	// the connections, close at exit; an unreachable fleet means one
	// warning and an in-process run.
	if cfg.Enabled() {
		if f, derr := dist.Dial(cfg); derr != nil {
			slog.Warn("rvfigures: fleet unavailable (running in-process)", "err", derr)
		} else {
			b.Fleet = f
			defer f.Close()
			if *hostsFile != "" {
				// Live membership: edits to the hosts file grow or shrink
				// the session while figures are still rendering.
				stop, werr := f.WatchHosts(*hostsFile, 0)
				if werr != nil {
					fmt.Fprintln(os.Stderr, werr)
					os.Exit(1)
				}
				defer stop()
			}
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for name, doc := range exps.FiguresDist(b) {
		path := filepath.Join(*out, name+".svg")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
	}
}
