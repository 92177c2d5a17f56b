package sim

import (
	"math"
	"testing"

	"repro/internal/dd"
	"repro/internal/geom"
	"repro/internal/phys"
	"repro/internal/prog"
)

func refAt(origin geom.Vec2) phys.Attributes {
	a := phys.Reference()
	a.Origin = origin
	return a
}

// Two agents walking straight at each other meet when the gap first
// reaches r: gap 10 closing at rate 2 reaches r=1 at t=4.5.
func TestHeadOnMeeting(t *testing.T) {
	a := AgentSpec{refAt(geom.V(0, 0)), prog.Instrs(prog.Move(prog.East, 100)), 1}
	b := AgentSpec{refAt(geom.V(10, 0)), prog.Instrs(prog.Move(prog.West, 100)), 1}
	res := Run(a, b, DefaultSettings())
	if !res.Met {
		t.Fatalf("no meeting: %v", res)
	}
	if got := res.MeetTime.Float64(); math.Abs(got-4.5) > 1e-9 {
		t.Errorf("meet time %v, want 4.5", got)
	}
	if gap := res.EndA.Dist(res.EndB); math.Abs(gap-1) > 1e-6 {
		t.Errorf("gap at meeting %v", gap)
	}
}

// A stationary target and a searcher passing at distance exactly r-ε.
func TestPassingDetection(t *testing.T) {
	a := AgentSpec{refAt(geom.V(0, 0)), prog.Instrs(prog.Move(prog.East, 100)), 1}
	b := AgentSpec{refAt(geom.V(50, 0.999)), prog.Empty(), 1}
	res := Run(a, b, DefaultSettings())
	if !res.Met {
		t.Fatalf("near pass missed: %v", res)
	}
	// First contact: x such that hypot(50-x, 0.999) = 1.
	wantX := 50 - math.Sqrt(1-0.999*0.999)
	if got := res.MeetTime.Float64(); math.Abs(got-wantX) > 1e-6 {
		t.Errorf("meet time %v, want %v", got, wantX)
	}
}

func TestMissByMoreThanR(t *testing.T) {
	a := AgentSpec{refAt(geom.V(0, 0)), prog.Instrs(prog.Move(prog.East, 100)), 1}
	b := AgentSpec{refAt(geom.V(50, 1.5)), prog.Empty(), 1}
	res := Run(a, b, DefaultSettings())
	if res.Met {
		t.Fatalf("met unexpectedly: %v", res)
	}
	if res.Reason != ReasonProgramsEnded {
		t.Errorf("reason %v", res.Reason)
	}
	if math.Abs(res.MinGap-1.5) > 1e-9 {
		t.Errorf("min gap %v, want 1.5", res.MinGap)
	}
}

// Delay semantics: B stays at its origin until its wake time.
func TestWakeDelay(t *testing.T) {
	// B at (10,0) walks West but only wakes at t=100. A is stationary.
	battrs := refAt(geom.V(10, 0))
	battrs.Wake = 100
	a := AgentSpec{refAt(geom.V(0, 0)), prog.Empty(), 1}
	b := AgentSpec{battrs, prog.Instrs(prog.Move(prog.East, 0), prog.Move(prog.West, 100)), 1}
	res := Run(a, b, DefaultSettings())
	if !res.Met {
		t.Fatalf("no meeting: %v", res)
	}
	// Gap 10 → closes to 1 after 9 units of travel starting at t=100
	// (up to the sight slack).
	if got := res.MeetTime.Float64(); math.Abs(got-109) > 1e-6 {
		t.Errorf("meet time %v, want 109", got)
	}
}

// Clock-rate and speed semantics: an agent with τ=2, v=3 executing
// go(E, 5) moves for 10 absolute time units covering 30 absolute units.
func TestClockAndSpeedScaling(t *testing.T) {
	battrs := phys.Attributes{Origin: geom.V(100, 0), Phi: 0, Chi: 1, Tau: 2, Speed: 3}
	a := AgentSpec{refAt(geom.V(0, 0)), prog.Empty(), 1}
	b := AgentSpec{battrs, prog.Instrs(prog.Move(prog.West, 5)), 1}
	res := Run(a, b, DefaultSettings())
	if res.Met {
		t.Fatalf("unexpected meeting: %v", res)
	}
	// B ends at 100 - 30 = 70.
	if !res.EndB.ApproxEqual(geom.V(70, 0), 1e-9) {
		t.Errorf("B end %v, want (70,0)", res.EndB)
	}
	if got := res.MinGap; math.Abs(got-70) > 1e-9 {
		t.Errorf("min gap %v", got)
	}
}

// Rotation and chirality: φ=π/2, χ=-1 maps local East to absolute North
// and local North to absolute East.
func TestFrameSemantics(t *testing.T) {
	battrs := phys.Attributes{Origin: geom.V(0, 0), Phi: math.Pi / 2, Chi: -1, Tau: 1, Speed: 1}
	a := AgentSpec{refAt(geom.V(1000, 1000)), prog.Empty(), 0.1}
	b := AgentSpec{battrs, prog.Instrs(prog.Move(prog.East, 2), prog.Move(prog.North, 3)), 0.1}
	res := Run(a, b, DefaultSettings())
	// Local E (1,0) → abs R(π/2)·FlipY·(1,0) = (0,1). Local N (0,1) →
	// R(π/2)·FlipY·(0,1) = R(π/2)·(0,-1) = (1,0).
	if !res.EndB.ApproxEqual(geom.V(3, 2), 1e-9) {
		t.Errorf("B end %v, want (3,2)", res.EndB)
	}
}

// Huge waits cost O(1): a single wait of 2^60 followed by a short
// approach must still resolve the meeting time to sub-unit accuracy.
func TestHugeWaitPrecision(t *testing.T) {
	huge := math.Ldexp(1, 60)
	a := AgentSpec{refAt(geom.V(0, 0)), prog.Instrs(prog.Wait(huge), prog.Move(prog.East, 100)), 1}
	b := AgentSpec{refAt(geom.V(10, 0)), prog.Empty(), 1}
	res := Run(a, b, Settings{MaxTime: math.Inf(1), MaxSegments: 100, SightSlack: 1e-9})
	if !res.Met {
		t.Fatalf("no meeting: %v", res)
	}
	// Meeting at huge + 9: check the dd time resolves the +9 exactly.
	off := res.MeetTime.SubFloat(huge).Float64()
	if math.Abs(off-9) > 1e-6 {
		t.Errorf("offset %v, want 9 (dd resolution lost?)", off)
	}
}

func TestMaxTimeStop(t *testing.T) {
	a := AgentSpec{refAt(geom.V(0, 0)), prog.Instrs(prog.Wait(1e12)), 1}
	b := AgentSpec{refAt(geom.V(10, 0)), prog.Instrs(prog.Wait(1e12)), 1}
	res := Run(a, b, Settings{MaxTime: 1000, MaxSegments: 100, SightSlack: 0})
	if res.Met || res.Reason != ReasonMaxTime {
		t.Fatalf("want max-time stop, got %v", res)
	}
	if got := res.EndTime.Float64(); got != 1000 {
		t.Errorf("end time %v", got)
	}
}

func TestMaxSegmentsStop(t *testing.T) {
	wiggle := prog.Forever(func(i int) prog.Program {
		return prog.Instrs(prog.Move(prog.East, 1), prog.Move(prog.West, 1))
	})
	a := AgentSpec{refAt(geom.V(0, 0)), wiggle, 0.1}
	b := AgentSpec{refAt(geom.V(100, 0)), prog.Empty(), 0.1}
	res := Run(a, b, Settings{MaxTime: math.Inf(1), MaxSegments: 1000, SightSlack: 0})
	if res.Reason != ReasonMaxSegments {
		t.Fatalf("want max-segments, got %v", res)
	}
	if res.Segments < 1000 {
		t.Errorf("segments %d", res.Segments)
	}
}

// Both programs ending without meeting reports ProgramsEnded.
func TestProgramsEnded(t *testing.T) {
	a := AgentSpec{refAt(geom.V(0, 0)), prog.Instrs(prog.Move(prog.East, 1)), 0.5}
	b := AgentSpec{refAt(geom.V(10, 0)), prog.Instrs(prog.Move(prog.East, 1)), 0.5}
	res := Run(a, b, DefaultSettings())
	if res.Met || res.Reason != ReasonProgramsEnded {
		t.Fatalf("want programs-ended, got %v", res)
	}
	if !res.EndA.ApproxEqual(geom.V(1, 0), 1e-12) || !res.EndB.ApproxEqual(geom.V(11, 0), 1e-12) {
		t.Errorf("end positions %v %v", res.EndA, res.EndB)
	}
}

// Section 5 extension: distinct radii. The far-sighted agent freezes at
// gap r1; the other continues and rendezvous completes at gap r2.
func TestDistinctRadiiStagedStop(t *testing.T) {
	// A (radius 5) walks East toward B (radius 1) at (20, 0); B walks
	// West. They close at rate 2 until gap = 5 at t = 7.5, then A freezes
	// (A at 7.5) and B alone closes 5 → 1 during 4 more units: t = 11.5.
	a := AgentSpec{refAt(geom.V(0, 0)), prog.Instrs(prog.Move(prog.East, 100)), 5}
	b := AgentSpec{refAt(geom.V(20, 0)), prog.Instrs(prog.Move(prog.West, 100)), 1}
	res := Run(a, b, DefaultSettings())
	if !res.Met {
		t.Fatalf("no meeting: %v", res)
	}
	if got := res.MeetTime.Float64(); math.Abs(got-11.5) > 1e-6 {
		t.Errorf("meet time %v, want 11.5", got)
	}
	if math.Abs(res.EndA.X-7.5) > 1e-6 {
		t.Errorf("A frozen at %v, want x=7.5", res.EndA)
	}
}

// Simultaneous identical agents at gap > r can never meet (the paper's
// opening observation): the gap is invariant.
func TestSymmetryInvariant(t *testing.T) {
	p := func() prog.Program {
		return prog.Instrs(
			prog.Move(prog.North, 3), prog.Wait(1), prog.Move(prog.East, 2),
			prog.Move(prog.South, 1),
		)
	}
	a := AgentSpec{refAt(geom.V(0, 0)), p(), 1}
	b := AgentSpec{refAt(geom.V(10, 0)), p(), 1}
	res := Run(a, b, DefaultSettings())
	if res.Met {
		t.Fatalf("identical agents met: %v", res)
	}
	if math.Abs(res.MinGap-10) > 1e-9 {
		t.Errorf("gap varied: min %v", res.MinGap)
	}
}

func TestTrivialInstanceMeetsAtZero(t *testing.T) {
	a := AgentSpec{refAt(geom.V(0, 0)), prog.Empty(), 2}
	b := AgentSpec{refAt(geom.V(1, 0)), prog.Empty(), 2}
	res := Run(a, b, DefaultSettings())
	if !res.Met || res.MeetTime.Float64() != 0 {
		t.Fatalf("trivial instance: %v", res)
	}
}

func TestTraceRecording(t *testing.T) {
	var zigs []prog.Instr
	for i := 0; i < 200; i++ {
		zigs = append(zigs, prog.Move(prog.North, 1), prog.Move(prog.South, 1))
	}
	zig := prog.Instrs(zigs...)
	s := DefaultSettings()
	s.TraceCap = 64
	a := AgentSpec{refAt(geom.V(0, 0)), zig, 0.1}
	b := AgentSpec{refAt(geom.V(50, 0)), prog.Empty(), 0.1}
	res := Run(a, b, s)
	if len(res.TraceA) == 0 || len(res.TraceA) > 64+1 {
		t.Fatalf("trace length %d", len(res.TraceA))
	}
	// Trace times must be nondecreasing.
	for i := 1; i < len(res.TraceA); i++ {
		if res.TraceA[i].T < res.TraceA[i-1].T {
			t.Fatal("trace times decreasing")
		}
	}
}

// The glide-reflection symmetry of Lemma 2.1: for a synchronous χ=-1
// instance, B's trajectory is the mirror image (across the canonical
// line) of A's trajectory delayed by t.
func TestLemma21GlideReflection(t *testing.T) {
	phi := 1.1
	b0 := geom.V(3, 1)
	tDelay := 2.0
	mk := func() prog.Program {
		return prog.Instrs(
			prog.Move(0.4, 2), prog.Wait(1), prog.Move(2.2, 3), prog.Move(5.0, 1),
		)
	}
	battrs := phys.Attributes{Origin: b0, Phi: phi, Chi: -1, Tau: 1, Speed: 1, Wake: tDelay}
	s := DefaultSettings()
	s.TraceCap = 1 << 16
	res := Run(
		AgentSpec{refAt(geom.V(0, 0)), mk(), 1e-6},
		AgentSpec{battrs, mk(), 1e-6},
		s,
	)
	if res.Met {
		t.Fatal("unexpected meeting")
	}
	line := geom.CanonicalLine(b0, phi)
	// For every B trace point at time T ≥ tDelay, the corresponding A
	// position at T - tDelay reflected across the canonical line and
	// shifted along it must equal B's position. Equivalent check that is
	// shift-free: distances to the line match, and the along-line spacing
	// of consecutive samples matches.
	posAt := func(tr []TracePoint, q float64) geom.Vec2 {
		// Linear scan: traces are small here.
		for i := 1; i < len(tr); i++ {
			if tr[i].T >= q {
				dt := tr[i].T - tr[i-1].T
				if dt == 0 {
					return tr[i].Pos
				}
				s := (q - tr[i-1].T) / dt
				return tr[i-1].Pos.Lerp(tr[i].Pos, s)
			}
		}
		return tr[len(tr)-1].Pos
	}
	for _, q := range []float64{2, 3, 4.5, 6, 8} {
		pa := posAt(res.TraceA, q-tDelay)
		pb := posAt(res.TraceB, q)
		da := line.SignedDistTo(pa)
		db := line.SignedDistTo(pb)
		// Mirror: signed distances are opposite (A starts on one side, B
		// equidistant on the other).
		if math.Abs(da+db) > 1e-6 {
			t.Fatalf("t=%v: signed dists %v, %v not mirrored", q, da, db)
		}
	}
	// Along-line displacement between A(t-delay) and B(t) is the constant
	// glide vector (Corollary 2.1).
	base := line.Coord(posAt(res.TraceB, 2.5)) - line.Coord(posAt(res.TraceA, 0.5))
	for _, q := range []float64{3, 4, 5.5, 7} {
		d := line.Coord(posAt(res.TraceB, q)) - line.Coord(posAt(res.TraceA, q-tDelay))
		if math.Abs(d-base) > 1e-6 {
			t.Fatalf("glide vector drifted: %v vs %v", d, base)
		}
	}
}

// Determinism: identical runs produce identical results.
func TestDeterminism(t *testing.T) {
	mk := func() (AgentSpec, AgentSpec) {
		a := AgentSpec{refAt(geom.V(0, 0)), prog.Seq(prog.Instrs(prog.Move(0.3, 5)), prog.Instrs(prog.Wait(2), prog.Move(2, 3))), 0.5}
		b := AgentSpec{refAt(geom.V(7, 2)), prog.Instrs(prog.Move(prog.West, 6)), 0.5}
		return a, b
	}
	a1, b1 := mk()
	a2, b2 := mk()
	r1 := Run(a1, b1, DefaultSettings())
	r2 := Run(a2, b2, DefaultSettings())
	if r1.Met != r2.Met || r1.MinGap != r2.MinGap || r1.Segments != r2.Segments ||
		r1.MeetTime != r2.MeetTime {
		t.Fatalf("nondeterministic results:\n%v\n%v", r1, r2)
	}
}

func TestStopReasonString(t *testing.T) {
	for r, want := range map[StopReason]string{
		ReasonMet:           "met",
		ReasonMaxTime:       "max-time",
		ReasonMaxSegments:   "max-segments",
		ReasonProgramsEnded: "programs-ended",
		StopReason(99):      "unknown",
	} {
		if got := r.String(); got != want {
			t.Errorf("String(%d) = %q", r, got)
		}
	}
}

// The closest-approach gate must leave MinGap bookkeeping untouched: the
// first interval records its gap against the +Inf initial minimum, and
// a later interval whose gap ties the minimum exactly (here every
// interval: the agents march North in lockstep) must not move
// MinGapTime off the first occurrence.
func TestMinGapGateFirstIntervalAndTie(t *testing.T) {
	steps := func() prog.Program {
		var list []prog.Instr
		for i := 0; i < 20; i++ {
			list = append(list, prog.Move(prog.North, 1), prog.Wait(0.5))
		}
		return prog.Instrs(list...)
	}
	for _, origin := range []geom.Vec2{geom.V(10, 0), geom.V(3, 4)} {
		a := AgentSpec{refAt(geom.V(0, 0)), steps(), 1}
		b := AgentSpec{refAt(origin), steps(), 1}
		res := Run(a, b, DefaultSettings())
		if res.Reason != ReasonProgramsEnded {
			t.Fatalf("origin %v: want programs-ended, got %v", origin, res)
		}
		if want := origin.Norm(); res.MinGap != want {
			t.Errorf("origin %v: MinGap %v, want %v", origin, res.MinGap, want)
		}
		if res.MinGapTime.Hi != 0 || res.MinGapTime.Lo != 0 {
			t.Errorf("origin %v: MinGapTime %v, want the first interval (0): a tie moved it", origin, res.MinGapTime)
		}
	}
}

// The runner's velocity cache returns exactly the bits of
// phys.Attributes.AbsVelocity, for repeated angles, more distinct angles
// than it holds (eviction), reflected frames and signed zeros.
func TestVelocityCacheMatchesAbsVelocity(t *testing.T) {
	thetas := []float64{
		prog.North, prog.East, prog.South, prog.West, prog.North, 0.3, 1.7,
		math.Copysign(0, -1), 0, 2.5, 0.3, 0.3 + 1e-15, prog.West, 4.1, 5.9, 1.7,
	}
	for _, attrs := range []phys.Attributes{
		phys.Reference(),
		{Phi: 1.1, Chi: -1, Tau: 2, Speed: 0.37, Wake: 1},
		{Phi: 4.7, Chi: 1, Tau: 1, Speed: 3},
	} {
		r := newRunner(AgentSpec{Attrs: attrs, Prog: prog.Empty()}, 0, 0, dd.FromFloat(math.Inf(1)), true)
		for round := 0; round < 3; round++ {
			for _, th := range thetas {
				got, want := r.velocity(th), attrs.AbsVelocity(th)
				if math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Y) != math.Float64bits(want.Y) {
					t.Fatalf("attrs %+v θ=%v: cached velocity %v, AbsVelocity %v", attrs, th, got, want)
				}
			}
		}
		r.stop()
	}
}
