package main

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
	"time"

	"repro/rendezvous"
)

// Point is one sweep sample: the swept parameter value and the instance
// it induces.
type Point struct {
	Value float64
	Inst  rendezvous.Instance
}

// Points constructs the geometrically spaced sweep points for one of
// the three sweep modes (delay | ratio | radius). Points whose induced
// instance fails validation are skipped and reported in the second
// return value; an unknown mode is an error.
func Points(mode string, from, to float64, steps int) (pts []Point, skipped []error, err error) {
	switch mode {
	case "delay", "ratio", "radius":
	default:
		return nil, nil, fmt.Errorf("unknown sweep %q (want delay | ratio | radius)", mode)
	}
	for k := 0; k < steps; k++ {
		frac := float64(k) / math.Max(1, float64(steps-1))
		v := from * math.Pow(to/from, frac)

		var in rendezvous.Instance
		switch mode {
		case "delay":
			in = rendezvous.Instance{R: 0.8, X: 0.9, Y: 0.1, Phi: 1.1, Tau: 1, V: 1.5, T: v, Chi: 1}
		case "ratio":
			in = rendezvous.Instance{R: 0.5, X: 1.2, Y: 0.6, Phi: 0.8, Tau: v, V: 1 / v, T: 0.5, Chi: 1}
		case "radius":
			in = rendezvous.Instance{R: v, X: 1.1, Y: 0, Phi: 0, Tau: 1, V: 1, Chi: -1}
			in.T = in.ProjGap() - v + 0.5
		}
		if verr := in.Validate(); verr != nil {
			skipped = append(skipped, fmt.Errorf("point %g: %w", v, verr))
			continue
		}
		pts = append(pts, Point{Value: v, Inst: in})
	}
	return pts, skipped, nil
}

// SweepSettings assembles the simulation settings of a sweep run: the
// segment budget, the in-process pool size (also forwarded to workers
// as their in-process pool), and (optionally) the distributed worker
// fleet with its per-connection send window (fixed when window > 0,
// adaptive up to maxWindow when window == 0) and failure model (stall
// is the liveness deadline for hung workers, maxRequeues the distinct-
// worker-kill count that quarantines a poison job; zero keeps the
// defaults, negative disables). compress asks TCP worker connections to
// negotiate flate compression — a WAN-link bandwidth saver that never
// changes the emitted bytes.
func SweepSettings(maxSeg, workers int, hosts string, workerProcs, window, maxWindow int, stall time.Duration, maxRequeues int, compress bool) rendezvous.Settings {
	set := rendezvous.DefaultSettings()
	set.MaxSegments = maxSeg
	set.Parallelism = workers
	set.Hosts = hosts
	set.WorkerProcs = workerProcs
	set.Window = window
	set.MaxWindow = maxWindow
	set.StallTimeout = stall
	set.MaxJobRequeues = maxRequeues
	set.Compress = compress
	return set
}

// SweepCSV simulates every point under AlmostUniversalRV on a pool of
// `workers` goroutines and renders the CSV document (header + one row
// per point, in sweep order). The batch engine guarantees the document
// is byte-identical for every worker count.
func SweepCSV(mode string, pts []Point, maxSeg, workers int) string {
	var b strings.Builder
	StreamCSV(&b, mode, pts, SweepSettings(maxSeg, workers, "", 0, 0, 0, 0, 0, false))
	return b.String()
}

// StreamCSV renders the same document as SweepCSV but writes each row
// the moment the ordered result prefix completes, instead of after the
// whole batch drains: a sweep whose early points are cheap prints them
// while the pool is still grinding through the expensive tail. The
// emitted bytes are identical to SweepCSV's for every worker count,
// pool size, and fleet — streaming changes when rows appear, never what
// they say.
func StreamCSV(w io.Writer, mode string, pts []Point, set rendezvous.Settings) {
	streamCSV(w, mode, pts, set, rendezvous.AlmostUniversalRV())
}

// StreamCSVOn is StreamCSV over an open fleet session instead of the
// one-shot batch entry point: the session's connections (and its live
// membership — WatchHosts may be reshaping the fleet mid-sweep) serve
// the points, and the emitted bytes stay identical to every other
// execution shape.
func StreamCSVOn(w io.Writer, mode string, pts []Point, set rendezvous.Settings, f *rendezvous.Fleet) {
	alg := rendezvous.AlmostUniversalRV()
	emitRows(w, mode, pts, f.SimulateBatchStream(sweepInstances(pts), alg, set))
}

// StreamCSVHostsFile is StreamCSVOn over a session dialed from the
// fleet set names, whose roster WatchHosts keeps in step with the hosts
// file at path while the rows stream. An unreachable initial fleet is
// one warning and an in-process run: the fleet fields of set are
// cleared first, so the fallback does not dial the same workers a
// second time. Determinism makes the fallback invisible in the CSV.
func StreamCSVHostsFile(w io.Writer, mode string, pts []Point, set rendezvous.Settings, path string) error {
	f, err := rendezvous.DialFleet(set)
	if err != nil {
		slog.Warn("rvsweep: fleet unavailable (running in-process)", "err", err)
		set.Hosts, set.WorkerProcs = "", 0
		StreamCSV(w, mode, pts, set)
		return nil
	}
	defer f.Close()
	stop, err := f.WatchHosts(path, 0)
	if err != nil {
		return err
	}
	defer stop()
	StreamCSVOn(w, mode, pts, set, f)
	return nil
}

// streamCSV is StreamCSV with the algorithm injectable (tests gate a
// custom algorithm to observe rows appearing before the batch ends).
func streamCSV(w io.Writer, mode string, pts []Point, set rendezvous.Settings, alg rendezvous.Algorithm) {
	emitRows(w, mode, pts, rendezvous.SimulateBatchStream(sweepInstances(pts), alg, set))
}

func sweepInstances(pts []Point) []rendezvous.Instance {
	ins := make([]rendezvous.Instance, len(pts))
	for i, p := range pts {
		ins[i] = p.Inst
	}
	return ins
}

// emitRows renders the CSV header and one row per streamed result, in
// sweep order — the one formatter behind both execution shapes.
func emitRows(w io.Writer, mode string, pts []Point, results <-chan rendezvous.Result) {
	fmt.Fprintf(w, "%s,meet_time,min_gap,segments\n", mode)
	i := 0
	for res := range results {
		meet := math.NaN()
		if res.Met {
			meet = res.MeetTime.Float64()
		}
		fmt.Fprintf(w, "%g,%g,%g,%d\n", pts[i].Value, meet, res.MinGap, res.Segments)
		i++
	}
}
