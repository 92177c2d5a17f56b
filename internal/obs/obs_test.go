package obs

import (
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

// Package-level metrics, as in real usage: registered once at init,
// recorded from tests. Names are prefixed to stay out of the way of
// the real rv_* families (the registry is process-global).
var (
	tCounter = NewCounter("test_obs_counter_total", "alloc-test counter")
	tGauge   = NewGauge("test_obs_gauge", "alloc-test gauge")
	tHist    = NewHistogram("test_obs_hist_seconds", "alloc-test histogram", LatencyBuckets())
	tCVec    = NewCounterVec("test_obs_cvec_total", "alloc-test counter family", "slot")
	tGVec    = NewGaugeVec("test_obs_gvec", "alloc-test gauge family", "slot")
)

// TestObsAllocFree pins the record paths at zero allocations per
// operation — counters, gauges, histograms, and cached vector
// children. The flight recorder sits on the dispatch hot path; an
// allocating record path would be a perf regression AND a GC-pressure
// perturbation the purity argument can't excuse. Same discipline as
// TestNewCursorAllocs in internal/prog.
func TestObsAllocFree(t *testing.T) {
	child := tCVec.With("slot-a") // resolved once, cached — the hot-path idiom
	gchild := tGVec.With("slot-a")

	// Warm every path outside the measured window.
	tCounter.Add(1)
	tGauge.Set(1)
	tGauge.Add(0.5)
	tHist.Observe(0.003)
	child.Inc()
	gchild.Set(2)

	allocs := testing.AllocsPerRun(100, func() {
		tCounter.Add(3)
		tGauge.Set(42.5)
		tGauge.Add(-1)
		tHist.Observe(0.0004)
		tHist.Observe(99) // overflow bucket
		child.Add(2)
		gchild.Set(7)
	})
	if allocs > 0 {
		t.Fatalf("record path allocates: %.1f allocs/op (want 0)", allocs)
	}
}

// TestDisabledGate proves SetEnabled(false) freezes every instrument:
// the no-op arm of the purity differential.
func TestDisabledGate(t *testing.T) {
	defer SetEnabled(true)

	c := NewCounter("test_obs_gate_total", "gate test")
	g := NewGauge("test_obs_gate_gauge", "gate test")
	h := NewHistogram("test_obs_gate_hist", "gate test", []float64{1, 2})

	c.Add(5)
	g.Set(3)
	h.Observe(1.5)

	SetEnabled(false)
	c.Add(100)
	g.Set(99)
	g.Add(99)
	h.Observe(1.5)

	if got := c.Value(); got != 5 {
		t.Errorf("counter advanced while disabled: %d (want 5)", got)
	}
	if got := g.Value(); got != 3 {
		t.Errorf("gauge moved while disabled: %g (want 3)", got)
	}
	if got := h.Count(); got != 1 {
		t.Errorf("histogram observed while disabled: %d (want 1)", got)
	}
	if snap := TakeSnapshot(); snap.Enabled {
		t.Error("snapshot reports enabled while gate is off")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name did not panic")
		}
	}()
	NewGauge("test_obs_counter_total", "collides with tCounter")
}

// TestPrometheusExposition checks the text format: HELP/TYPE headers
// for every family (including a vec with no children yet — the CI
// scrape relies on series being declared before they fire), cumulative
// histogram buckets, and label escaping.
func TestPrometheusExposition(t *testing.T) {
	c := NewCounter("test_expo_counter_total", "expo counter")
	c.Add(7)
	v := NewCounterVec("test_expo_cvec_total", "expo family", "slot")
	v.With(`tcp:a"b\c`).Add(2)
	NewGaugeVec("test_expo_empty_gvec", "family with no children yet", "slot")
	h := NewHistogram("test_expo_hist", "expo histogram", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)

	var b strings.Builder
	if err := WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP test_expo_counter_total expo counter\n# TYPE test_expo_counter_total counter\ntest_expo_counter_total 7\n",
		"# TYPE test_expo_cvec_total counter\n" + `test_expo_cvec_total{slot="tcp:a\"b\\c"} 2` + "\n",
		// A family with no children still declares itself.
		"# HELP test_expo_empty_gvec family with no children yet\n# TYPE test_expo_empty_gvec gauge\n",
		// Buckets are cumulative; +Inf equals the total count.
		`test_expo_hist_bucket{le="1"} 1` + "\n",
		`test_expo_hist_bucket{le="2"} 2` + "\n",
		`test_expo_hist_bucket{le="+Inf"} 3` + "\n",
		"test_expo_hist_sum 11\n",
		"test_expo_hist_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestJSONSnapshot round-trips /statusz output and checks the sorted,
// deterministic ordering the snapshot promises.
func TestJSONSnapshot(t *testing.T) {
	v := NewCounterVec("test_json_cvec_total", "json family", "slot")
	v.With("b").Add(2)
	v.With("a").Add(1)

	var b strings.Builder
	if err := WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("statusz is not valid JSON: %v", err)
	}

	var children []Sample
	for _, s := range snap.Counters {
		if s.Name == "test_json_cvec_total" {
			children = append(children, s)
		}
	}
	if len(children) != 2 || children[0].LabelValue != "a" || children[1].LabelValue != "b" {
		t.Fatalf("vec children not sorted by label value: %+v", children)
	}
	if children[0].Value != 1 || children[1].Value != 2 || children[0].Label != "slot" {
		t.Fatalf("vec children wrong: %+v", children)
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"WARN": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v (want %v)", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}
