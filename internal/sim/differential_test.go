package sim_test

// Accounting and observer checks over a fixed set of simulations: what
// wait coalescing is allowed to change relative to per-instruction
// accounting (Segments only — the trajectory outcomes must survive),
// and where the phase/block observer ends up. Bit-identity of Results
// is pinned against the frozen reference engine (reference_test.go).

import (
	"math"
	"testing"

	"repro/internal/cgkk"
	"repro/internal/core"
	"repro/internal/inst"
	"repro/internal/latecomers"
	"repro/internal/prog"
	"repro/internal/sim"
)

// diffCase is one simulation whose two accounting modes are compared.
type diffCase struct {
	name string
	in   inst.Instance
	mk   func() prog.Program // fresh program per agent per run
}

func diffCases() []diffCase {
	aurv := func() prog.Program { return core.Program(core.Compact(), nil) }
	return []diffCase{
		{"type2-latecomer", inst.Instance{R: 1.0, X: 1.1, Y: 0, Phi: 0, Tau: 1, V: 1, T: 1.0, Chi: 1}, aurv},
		{"type3-clock-drift", inst.Instance{R: 0.5, X: 1.2, Y: 0.6, Phi: 0.8, Tau: 2, V: 0.5, T: 0.5, Chi: 1}, aurv},
		{"type4-rotated", inst.Instance{R: 0.8, X: 0.9, Y: 0.2, Phi: 1.1, Tau: 1, V: 1, T: 1.5, Chi: 1}, aurv},
		{"type1-mirror", inst.Instance{R: 0.9, X: 1.1, Y: 0, Phi: 0, Tau: 1, V: 1, T: 1.0, Chi: -1},
			func() prog.Program { return core.Program(core.Compact(), nil) }},
		{"cgkk-substrate", inst.Instance{R: 0.6, X: 1.0, Y: 0.2, Phi: 1.2, Tau: 1, V: 1, T: 0, Chi: 1},
			func() prog.Program { return cgkk.Program(cgkk.Compact()) }},
		{"latecomers-substrate", inst.Instance{R: 0.8, X: 0.9, Y: 0.3, Phi: 0, Tau: 1, V: 1, T: 1.2, Chi: 1},
			func() prog.Program { return latecomers.Program() }},
		// A non-meeting run: the comparison must also hold when the
		// segment budget, not a rendezvous, ends the run.
		{"no-meet-budget", inst.Instance{R: 0.5, X: 2, Y: 0, Phi: 0, Tau: 1, V: 1, T: 0.7, Chi: 1}, aurv},
	}
}

func runCase(c diffCase, noCoalesce bool) sim.Result {
	set := sim.DefaultSettings()
	set.MaxSegments = 3_000_000
	set.NoWaitCoalesce = noCoalesce
	a := sim.AgentSpec{Attrs: c.in.AgentA(), Prog: c.mk(), Radius: c.in.R}
	b := sim.AgentSpec{Attrs: c.in.AgentB(), Prog: c.mk(), Radius: c.in.R}
	return sim.Run(a, b, set)
}

// TestWaitCoalescingAccounting pins what coalescing may change versus
// per-instruction accounting: Segments can only shrink, and the
// trajectory outcomes (Met, MeetTime, MinGap) must be preserved to
// analytic tolerance (coalescing merges event intervals, which can move
// float64 rounding by ulps; anything larger is a bug).
func TestWaitCoalescingAccounting(t *testing.T) {
	for _, c := range diffCases() {
		fused := runCase(c, false)
		plain := runCase(c, true)
		if fused.Met != plain.Met || fused.Reason != plain.Reason {
			t.Errorf("%s: outcome changed by coalescing: %v vs %v", c.name, fused, plain)
			continue
		}
		if fused.Segments > plain.Segments {
			t.Errorf("%s: coalescing increased segments: %d > %d", c.name, fused.Segments, plain.Segments)
		}
		if fused.Met {
			ft, pt := fused.MeetTime.Float64(), plain.MeetTime.Float64()
			if math.Abs(ft-pt) > 1e-9*math.Max(1, math.Abs(pt)) {
				t.Errorf("%s: meet time drifted: %v vs %v", c.name, ft, pt)
			}
		}
		if math.Abs(fused.MinGap-plain.MinGap) > 1e-9*math.Max(1, plain.MinGap) {
			t.Errorf("%s: min gap drifted: %v vs %v", c.name, fused.MinGap, plain.MinGap)
		}
	}
}

// TestProgressEquivalence: the phase/block observer must report the
// final positions recorded when the simulator still had a second,
// coroutine-based pull path and both paths agreed on them. A meeting run stops in
// phase 1, block 1; the MaxTime cuts of a non-meeting run land halfway
// through each block of phases 1–3.
func TestProgressEquivalence(t *testing.T) {
	meet := inst.Instance{R: 0.5, X: 1.2, Y: 0.6, Phi: 0.8, Tau: 2, V: 0.5, T: 0.5, Chi: 1}
	noMeet := inst.Instance{R: 0.5, X: 2, Y: 0, Phi: 0, Tau: 1, V: 1, T: 0.7, Chi: 1}
	for _, c := range []struct {
		in      inst.Instance
		maxTime float64
		want    core.Progress
	}{
		{meet, 1e18, core.Progress{Phase: 1, Block: 1}},
		{noMeet, 160, core.Progress{Phase: 1, Block: 1}},
		{noMeet, 323, core.Progress{Phase: 1, Block: 2}},
		{noMeet, 878, core.Progress{Phase: 1, Block: 3}},
		{noMeet, 1436, core.Progress{Phase: 1, Block: 4}},
		{noMeet, 4674, core.Progress{Phase: 2, Block: 1}},
		{noMeet, 7911, core.Progress{Phase: 2, Block: 2}},
		{noMeet, 532608, core.Progress{Phase: 2, Block: 3}},
		{noMeet, 1057336, core.Progress{Phase: 2, Block: 4}},
		{noMeet, 1115420, core.Progress{Phase: 3, Block: 1}},
		{noMeet, 1173478, core.Progress{Phase: 3, Block: 2}},
		{noMeet, 538048028, core.Progress{Phase: 3, Block: 3}},
		{noMeet, 1074922832, core.Progress{Phase: 3, Block: 4}},
	} {
		var pg core.Progress
		set := sim.DefaultSettings()
		set.MaxSegments = 3_000_000
		set.MaxTime = c.maxTime
		a := sim.AgentSpec{Attrs: c.in.AgentA(), Prog: core.Program(core.Compact(), &pg), Radius: c.in.R}
		b := sim.AgentSpec{Attrs: c.in.AgentB(), Prog: core.Program(core.Compact(), nil), Radius: c.in.R}
		sim.Run(a, b, set)
		if pg != c.want {
			t.Errorf("X=%v maxTime=%v: progress %+v, want %+v", c.in.X, c.maxTime, pg, c.want)
		}
	}
}

// TestCoalescedWaitRunKept: a program ending in a run of waits must
// still execute them (the fused segment plays out; exhaustion is only
// reported afterwards). The moving agent reaches the target during the
// fused wait window.
func TestCoalescedWaitRunKept(t *testing.T) {
	waits := prog.Instrs(prog.Wait(3), prog.Wait(3), prog.Wait(3), prog.Wait(100))
	mover := prog.Instrs(prog.Wait(5), prog.Move(prog.East, 50))
	ain := inst.Instance{R: 0.5, X: 10, Y: 0, Phi: 0, Tau: 1, V: 1, T: 0, Chi: 1}
	a := sim.AgentSpec{Attrs: ain.AgentA(), Prog: mover, Radius: 0.5}
	b := sim.AgentSpec{Attrs: ain.AgentB(), Prog: waits, Radius: 0.5}
	res := sim.Run(a, b, sim.DefaultSettings())
	if !res.Met {
		t.Fatalf("no meeting through fused waits: %v", res)
	}
	// B idles at (10,0); A starts moving at t=5 and closes 10 → 0.5.
	if got := res.MeetTime.Float64(); math.Abs(got-14.5) > 1e-6 {
		t.Errorf("meet time %v, want 14.5", got)
	}
}
