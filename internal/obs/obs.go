// Package obs is the reproduction's flight recorder: a
// dependency-free, lock-free metrics core shared by every layer of the
// stack (simulator batches, the batch pool, the distributed dispatch
// engine, the worker runtime, and the CLIs).
//
// Design constraints, in order:
//
//  1. Observation must be provably non-perturbing. Every scheduling
//     feature in this repo carries a byte-identity argument (DESIGN.md
//     §6–§8): the distributed, windowed, memoized run produces the
//     same bytes as the in-process serial run. Metrics ride the same
//     argument — the record path only touches process-wide atomics,
//     never the scheduler's inputs, and the whole subsystem sits
//     behind one atomic gate (SetEnabled) so a differential test can
//     pin metrics-on output byte-identical to metrics-off.
//  2. Zero allocations on the record path. Counters, gauges, and
//     histograms are plain atomics; vector children are resolved (and
//     allocated) once at slot-creation time and cached by the caller,
//     so the hot path is a single atomic RMW. TestObsAllocFree pins
//     this at 0 allocs/op, same discipline as TestNewCursorAllocs.
//  3. No dependencies. Exposition is Prometheus text format and plain
//     JSON, hand-rolled over the stdlib; the HTTP surface is net/http.
//
// The registry is static: metrics are created in package var blocks at
// init time, registered under globally unique names, and live for the
// process. There is no unregistration — a flight recorder that loses
// tape mid-flight is worse than none.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// enabled gates every record path. Default on: a process that never
// touches the gate gets a working flight recorder. The differential
// purity test (internal/dist) flips it off, replays a run, and asserts
// the output bytes and fold stats are identical either way.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether record paths are live.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns every record path on or off process-wide. Recording
// while disabled is a no-op (one atomic load); readings taken while
// disabled simply stop advancing.
func SetEnabled(on bool) { enabled.Store(on) }

// registry is the static metric catalog. Registration happens in
// package var blocks (cold, rare); exposition walks it under the
// mutex. Record paths never touch it.
var registry struct {
	mu          sync.Mutex
	names       map[string]struct{}
	counters    []*Counter
	counterVecs []*CounterVec
	gauges      []*Gauge
	gaugeVecs   []*GaugeVec
	histograms  []*Histogram
}

func register(name string, add func()) {
	if name == "" {
		panic("obs: empty metric name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.names == nil {
		registry.names = make(map[string]struct{})
	}
	if _, dup := registry.names[name]; dup {
		panic("obs: duplicate metric name " + name)
	}
	registry.names[name] = struct{}{}
	add()
}

// A Counter is a monotonically increasing uint64.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// NewCounter registers a counter under a globally unique name.
func NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	register(name, func() { registry.counters = append(registry.counters, c) })
	return c
}

// Add increments the counter by n. Zero-alloc; no-op when disabled.
func (c *Counter) Add(n uint64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Gauge is an instantaneous float64 (window size, RTT, pool cap).
type Gauge struct {
	name, help string
	bits       atomic.Uint64 // math.Float64bits encoding
}

// NewGauge registers a gauge under a globally unique name.
func NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	register(name, func() { registry.gauges = append(registry.gauges, g) })
	return g
}

// Set stores x. Zero-alloc; no-op when disabled.
func (g *Gauge) Set(x float64) {
	if enabled.Load() {
		g.bits.Store(math.Float64bits(x))
	}
}

// Add shifts the gauge by delta (CAS loop; use for live up/down
// tallies like in-flight jobs). Zero-alloc; no-op when disabled.
func (g *Gauge) Add(delta float64) {
	if !enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// A Histogram counts observations into fixed upper-bound buckets plus
// a +Inf overflow bucket, and tracks the running sum. Bounds are fixed
// at construction — no resizing, no quantile sketches — so Observe is
// a bounded scan over a small array plus two atomic RMWs.
type Histogram struct {
	name, help string
	bounds     []float64       // ascending upper bounds
	counts     []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits    atomic.Uint64
	total      atomic.Uint64
}

// NewHistogram registers a histogram with the given ascending bucket
// upper bounds under a globally unique name.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
		}
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	register(name, func() { registry.histograms = append(registry.histograms, h) })
	return h
}

// Observe records x. Zero-alloc; no-op when disabled.
func (h *Histogram) Observe(x float64) {
	if !enabled.Load() {
		return
	}
	i := 0
	for i < len(h.bounds) && x > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LatencyBuckets is the shared bucket ladder for reply-latency
// histograms: 100µs to 10s on a 1-2.5-5 progression, wide enough for
// both a LAN fleet and a stalled connection one tick short of its
// liveness deadline.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// A CounterVec is a family of counters split by one label (per-slot
// dispatch counts, per-slot deaths). Children are created under a
// mutex on first use and cached by the caller; the record path on a
// cached child is identical to a plain Counter.
type CounterVec struct {
	name, help, label string

	mu       sync.RWMutex
	children map[string]*Counter
}

// NewCounterVec registers a counter family keyed by one label.
func NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{name: name, help: help, label: label, children: make(map[string]*Counter)}
	register(name, func() { registry.counterVecs = append(registry.counterVecs, v) })
	return v
}

// With returns the child counter for one label value, creating it on
// first use. Hot paths resolve their child once (slot creation) and
// cache the pointer.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c := v.children[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[value]; c == nil {
		c = &Counter{name: v.name, help: v.help}
		v.children[value] = c
	}
	return c
}

// Total sums the family across all label values (used by exact-count
// fault assertions in the chaos suite, where the slot name varies).
func (v *CounterVec) Total() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var t uint64
	for _, c := range v.children {
		t += c.Value()
	}
	return t
}

// A GaugeVec is a family of gauges split by one label (per-slot
// window, RTT, breaker state).
type GaugeVec struct {
	name, help, label string

	mu       sync.RWMutex
	children map[string]*Gauge
}

// NewGaugeVec registers a gauge family keyed by one label.
func NewGaugeVec(name, help, label string) *GaugeVec {
	v := &GaugeVec{name: name, help: help, label: label, children: make(map[string]*Gauge)}
	register(name, func() { registry.gaugeVecs = append(registry.gaugeVecs, v) })
	return v
}

// With returns the child gauge for one label value, creating it on
// first use.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.RLock()
	g := v.children[value]
	v.mu.RUnlock()
	if g != nil {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g = v.children[value]; g == nil {
		g = &Gauge{name: v.name, help: v.help}
		v.children[value] = g
	}
	return g
}
