// Command perfbench is the repository benchmark: it times the paper's
// artifacts and the in-process batch path end to end, times each layer
// down to a stdio fleet in a separate traced run, checks every output it
// times, and prints one JSON result line.
//
// Usage (from the repository root, normally through perfbench/run.py,
// which builds this binary first):
//
//	perfbench -workload paper-tables|meet-batch -seed N -seconds S -trace 0|1
//
// With -trace 0 the run measures for S seconds and reports the
// end-to-end metrics. With -trace 1 it runs one untraced and one traced
// pass of the workload, then times calls into each layer's public
// functions from this package (the program itself is not instrumented)
// and reports the per-layer metrics. The last line of standard output
// is always the result object; human-readable notes go to standard
// error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/dist"
)

// params is everything a run depends on besides the workload name.
type params struct {
	seed    int64
	seconds float64
	trace   bool
	tables  tableParams
	stream  streamParams
}

// defaultParams are the benchmark's fixed sizes; the short-mode test
// shrinks them.
func defaultParams() params {
	return params{tables: rvtableParams(), stream: defaultStreamParams()}
}

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one run reports: operations checked, operations that
// failed their check, and the metrics.
type result struct {
	attempted, failed int
	leaks             int // fleet closes that left goroutines or processes behind
	metrics           []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// check counts one verified operation, failed unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		note("check failed: "+format, args...)
	}
}

// workloads maps each workload name to its runner. Every runner makes
// its inputs from p.seed alone.
var workloads = map[string]func(p params, tr *tracer) result{
	"paper-tables": runPaperTables,
	"meet-batch":   runMeetBatch,
}

func main() {
	dist.MaybeServeStdio() // the ledger's fleet re-executes this binary as its stdio workers

	var (
		name    = flag.String("workload", "", "workload: paper-tables or meet-batch")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measurement time of an untraced run")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *trace, *seconds)
		os.Exit(2)
	}
	p := defaultParams()
	p.seed, p.seconds, p.trace = *seed, *seconds, *trace == 1
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	line, err := run(p, tr).json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// json renders the result line.
func (r result) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]value, len(r.metrics))
	for _, x := range r.metrics {
		if _, dup := m[x.name]; dup {
			return "", fmt.Errorf("metric %s reported twice", x.name)
		}
		m[x.name] = value{x.value, x.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, m})
	return string(b), err
}

// ---- statistics ----

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-th percentile of sorted samples.
func nearestRank(sorted []float64, p float64) float64 {
	k := rank(len(sorted), p)
	return sorted[k-1]
}

func rank(n int, p float64) int {
	k := int(float64(n)*p/100 + 0.999999999)
	return max(1, min(k, n))
}

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest candidate percentile of the samples that has
// at least ten samples beyond it (the median when none has), with that
// percentile. Feed it a sample whose size does not grow with the
// program's speed (see latencySample): otherwise a faster program
// reports a higher percentile than its parent.
func tail(xs []float64) (value, pct float64) {
	s := sortedCopy(xs)
	for _, p := range tailPercentiles {
		if len(s)-rank(len(s), p) >= 10 {
			return nearestRank(s, p), p
		}
	}
	return nearestRank(s, 50), 50
}

// latencySample picks the batches the latency metrics are taken over:
// those of n passes spread evenly over the run, or of every pass when
// the run has no more than n. The sample size, and so the tail's
// percentile, stays the same however fast the program is, and taking
// whole passes keeps every batch's share of the sample.
func latencySample(durs []float64, perPass, n int) []float64 {
	passes := len(durs) / perPass
	if passes <= n {
		return durs
	}
	out := make([]float64, 0, n*perPass)
	for i := 0; i < n; i++ {
		k := i * passes / n
		out = append(out, durs[k*perPass:(k+1)*perPass]...)
	}
	return out
}

// latencyMetrics adds batch_p50_ms and batch_tail_ms for a sample of
// per-batch durations in seconds, and notes the tail's percentile and
// the sample size.
func (r *result) latencyMetrics(what string, durs []float64) {
	ms := make([]float64, len(durs))
	for i, d := range durs {
		ms[i] = d * 1e3
	}
	t, p := tail(ms)
	r.add("batch_p50_ms", nearestRank(sortedCopy(ms), 50), "ms")
	r.add("batch_tail_ms", t, "ms")
	note("batch_tail_ms is p%g of %d %s", p, len(ms), what)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// allocsPer returns the exact mean number of heap allocations per call
// of fn over n calls, with other goroutines held off the processor the
// way testing.AllocsPerRun does (but without its rounding down, so a
// cost paid once every k calls still shows as 1/k).
func allocsPer(n int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm up lazily built state
	before := mallocs()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(mallocs()-before) / float64(n)
}

// setupRepeats is how many times each workload repeats its set-up;
// setup_s is the median.
const setupRepeats = 9

// setups times a workload's set-up setupRepeats times, spread over the
// run: once before measuring, then each time another 1/setupRepeats of
// the measurement has passed. setup_s then samples the host over the
// whole run, as wall_s does, and not only over its first seconds.
type setups struct {
	run   func()
	times []float64
}

// newSetups runs and times the first set-up.
func newSetups(run func()) *setups {
	s := &setups{run: run}
	s.once()
	return s
}

func (s *setups) once() {
	t0 := time.Now()
	s.run()
	s.times = append(s.times, time.Since(t0).Seconds())
}

// due runs the set-ups that are due once the given share of the
// measurement has passed; due(1) runs all that remain.
func (s *setups) due(done float64) {
	for len(s.times) < setupRepeats && float64(len(s.times)) <= done*setupRepeats {
		s.once()
	}
}

func (s *setups) median() float64 { return median(s.times) }

// ---- tracing ----

// tracer sums, per name, the time spent in the calls the traced run
// wraps from this package. A nil *tracer records nothing and reads no
// clock, which is how untraced runs call the same code.
type tracer struct {
	totals map[string]float64
}

func newTracer() *tracer { return &tracer{totals: map[string]float64{}} }

// start begins a span.
func (tr *tracer) start() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// end adds the span begun at t0 to name's total.
func (tr *tracer) end(name string, t0 time.Time) {
	if tr != nil {
		tr.totals[name] += time.Since(t0).Seconds()
	}
}

// total is the summed duration of every span with the given name.
func (tr *tracer) total(name string) float64 { return tr.totals[name] }

// ---- lifecycle ----

// hygieneWait bounds how long a closed fleet may take to wind down.
const hygieneWait = 5 * time.Second

// hygiene checks that closing a fleet left nothing behind: within
// hygieneWait the goroutine count returns to the baseline taken before
// the fleet was dialed, and no child process (live or unreaped)
// remains. It returns the number of leaks found and dumps goroutine
// stacks on stderr for a goroutine leak.
func hygiene(baseline int) int {
	deadline := time.Now().Add(hygieneWait)
	leaks := 0
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		leaks++
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "perfbench: %d goroutines after fleet close, baseline %d\n%s\n", n, baseline, buf)
	}
	for {
		var ws syscall.WaitStatus
		pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, nil)
		switch {
		case errors.Is(err, syscall.ECHILD):
			return leaks // no child left
		case err != nil && !errors.Is(err, syscall.EINTR):
			fmt.Fprintln(os.Stderr, "perfbench: wait4:", err)
			return leaks + 1
		case pid > 0:
			// An exited child that the fleet never reaped.
			leaks++
			fmt.Fprintf(os.Stderr, "perfbench: reaped worker pid %d left behind by the fleet\n", pid)
		case time.Now().After(deadline):
			fmt.Fprintln(os.Stderr, "perfbench: worker subprocesses still running after fleet close")
			return leaks + 1
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// note prints a human-readable line on stderr.
func note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
