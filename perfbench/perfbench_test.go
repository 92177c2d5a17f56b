package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/dist"
	"repro/internal/measure"
)

func TestMain(m *testing.M) {
	dist.MaybeServeStdio() // the ledger's fleet re-executes the test binary as its workers
	os.Exit(m.Run())
}

// shortParams shrink every workload to seconds: smaller tables, miss
// budget and T5 sweep, and a 96-instance stream.
func shortParams(trace bool) params {
	p := defaultParams()
	p.seed, p.seconds, p.trace = 7, 0.01, trace
	p.tables.n = 2
	p.tables.t5Samples = measure.SweepChunk
	p.tables.budgets.MissSegments = 20_000
	p.stream = streamParams{pool: 96, fresh: 12, dups: 4, batch: 32}
	return p
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced
// and checks that each emits exactly the metrics BENCHMARK.json
// declares for that mode, with their units, and that every check
// passes.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			r := run(shortParams(trace), newTracer())
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", name, trace, r.failed, r.attempted)
			}
			line, err := r.json()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatalf("%s trace=%v: result line %q: %v", name, trace, line, err)
			}
			if !out.Correct {
				t.Errorf("%s trace=%v: result not correct", name, trace)
			}
			for m, unit := range want {
				got, ok := out.Metrics[m]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", name, trace, m, got.Unit, unit)
				}
			}
			for m := range out.Metrics {
				if _, ok := want[m]; !ok {
					t.Errorf("%s trace=%v: metric %s is not declared", name, trace, m)
				}
			}
		}
	}
}

// TestWrongReferenceFails corrupts one reference result: the untraced
// run must count failed operations and the traced run must report a
// nonzero ops_failed_share.
func TestWrongReferenceFails(t *testing.T) {
	for _, trace := range []bool{false, true} {
		p := shortParams(trace)
		st := newStream(p.stream, p.seed)
		st.ref[st.idx[0]].Segments++
		r := meetBatch(p, newTracer(), st, newSetups(func() {}))
		if r.failed == 0 {
			t.Errorf("trace=%v: a wrong reference went unnoticed", trace)
		}
		if trace {
			share := -1.0
			for _, m := range r.metrics {
				if m.name == "ops_failed_share" {
					share = m.value
				}
			}
			if share <= 0 {
				t.Errorf("ops_failed_share = %v with a wrong reference, want > 0", share)
			}
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {21, 50}, {40, 75}, {100, 90}, {1000, 99}, {20000, 99.9}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i)
		}
		v, p := tail(xs)
		if p != tc.want {
			t.Errorf("n=%d: tail percentile %g, want %g", tc.n, p, tc.want)
		}
		if beyond := tc.n - int(v); p != 50 && beyond < 10 {
			t.Errorf("n=%d: p%g has %d samples beyond it", tc.n, p, beyond)
		}
	}
}

// TestSetupsSpreadOverRun checks that set-up k of setupRepeats runs once
// k/setupRepeats of the measurement has passed, and that due(1) brings
// the count to setupRepeats.
func TestSetupsSpreadOverRun(t *testing.T) {
	calls := 0
	set := newSetups(func() { calls++ })
	for _, tc := range []struct {
		done float64
		want int
	}{{0, 1}, {0.1, 1}, {1.0 / 9, 2}, {0.5, 5}, {1, setupRepeats}, {2, setupRepeats}} {
		set.due(tc.done)
		if calls != tc.want || len(set.times) != tc.want {
			t.Errorf("after due(%g): %d set-ups, %d times, want %d", tc.done, calls, len(set.times), tc.want)
		}
	}
}

// TestLatencySampleIsFixed checks that the latency sample takes whole
// passes spread over the run and that its size, and so the tail's
// percentile, does not grow with the number of passes.
func TestLatencySampleIsFixed(t *testing.T) {
	const perPass, n = 16, 60
	for _, passes := range []int{10, 60, 61, 350, 5000} {
		durs := make([]float64, passes*perPass)
		for i := range durs {
			durs[i] = float64(i)
		}
		got := latencySample(durs, perPass, n)
		if want := min(passes, n) * perPass; len(got) != want {
			t.Fatalf("%d passes: sample of %d, want %d", passes, len(got), want)
		}
		for k := 0; k < len(got); k += perPass {
			if first := int(got[k]); first%perPass != 0 || int(got[k+perPass-1]) != first+perPass-1 {
				t.Fatalf("%d passes: sample %d does not start a whole pass", passes, k)
			}
		}
		if passes >= n {
			if _, p := tail(got); p != 95 {
				t.Errorf("%d passes: tail is p%g, want p95", passes, p)
			}
		}
	}
}
