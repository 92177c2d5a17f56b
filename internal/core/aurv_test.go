package core

import (
	"math"
	"testing"

	"repro/internal/cgkk"
	"repro/internal/inst"
	"repro/internal/prog"
	"repro/internal/sim"
)

func simulate(in inst.Instance, s Schedule, maxSeg int) (sim.Result, *Progress) {
	set := sim.DefaultSettings()
	set.MaxSegments = maxSeg
	pa, pb := &Progress{}, &Progress{}
	a := sim.AgentSpec{Attrs: in.AgentA(), Prog: Program(s, pa), Radius: in.R}
	b := sim.AgentSpec{Attrs: in.AgentB(), Prog: Program(s, pb), Radius: in.R}
	res := sim.Run(a, b, set)
	return res, pa
}

func TestBlocksReturnToStart(t *testing.T) {
	s := Compact()
	for i := 1; i <= 3; i++ {
		for name, blk := range map[string]prog.Program{
			"block1": Block1(i),
			"block2": Block2(i),
			"block3": Block3(i, s),
			"block4": Block4(i, s),
		} {
			dx, dy := prog.Displacement(blk)
			if math.Hypot(dx, dy) > 1e-6 {
				t.Errorf("%s(%d) displacement %v (Lemma 3.1 violated)", name, i, math.Hypot(dx, dy))
			}
		}
	}
}

func TestBlockDurationsMatch(t *testing.T) {
	s := Compact()
	for i := 1; i <= 3; i++ {
		for name, tc := range map[string]struct {
			p    prog.Program
			want float64
		}{
			"block1": {Block1(i), Block1Duration(i)},
			"block2": {Block2(i), Block2Duration(i)},
			"block3": {Block3(i, s), Block3Duration(i, s)},
			"block4": {Block4(i, s), Block4Duration(i, s)},
		} {
			got := prog.TotalDuration(tc.p)
			if math.Abs(got-tc.want) > 1e-6*math.Max(tc.want, 1) {
				t.Errorf("%s(%d) duration %v, want %v", name, i, got, tc.want)
			}
		}
	}
}

func TestBlock4SliceCount(t *testing.T) {
	// Phase i slices the CGKK budget 2^i into 2^{2i} pieces, each
	// followed by wait(2^i): exactly 2^{2i} pauses of amount 2^i.
	for i := 1; i <= 3; i++ {
		span := math.Ldexp(1, i)
		pauses := 0
		prog.Collect(prog.WithBacktrack(Block4(i, Compact())))
		for ins := range prog.All(Block4(i, Compact())) {
			if ins.Op == prog.OpWait && ins.Amount == span {
				pauses++
			}
		}
		if want := 1 << uint(2*i); pauses != want {
			t.Errorf("phase %d: %d pauses, want %d", i, pauses, want)
		}
	}
}

// Type 3: clock drift. These meet in low phases; assert the predictor's
// phase agrees with the simulated outcome.
func TestRendezvousType3(t *testing.T) {
	cases := []inst.Instance{
		{R: 0.5, X: 1.2, Y: 0.6, Phi: 0.8, Tau: 2, V: 0.5, T: 0.5, Chi: 1},
		{R: 0.5, X: 1.0, Y: -0.8, Phi: 3.9, Tau: 0.5, V: 2, T: 1.5, Chi: -1},
		{R: 0.8, X: 1.5, Y: 0.2, Phi: 0, Tau: 1.4, V: 1, T: 0, Chi: 1},
	}
	s := Compact()
	for k, in := range cases {
		if in.TypeOf() != inst.Type3 {
			t.Fatalf("case %d not type 3: %v", k, in)
		}
		pred, ok := PredictPhase(in, s)
		if !ok {
			t.Fatalf("case %d: no prediction", k)
		}
		res, pg := simulate(in, s, 50_000_000)
		if !res.Met {
			t.Fatalf("case %d: no rendezvous: %v\n%v", k, res, in)
		}
		if pg.Phase > pred.Phase {
			t.Errorf("case %d: met in phase %d after predicted %d", k, pg.Phase, pred.Phase)
		}
		if res.MeetTime.Float64() > pred.TimeBound {
			t.Errorf("case %d: met at %v after bound %v", k, res.MeetTime.Float64(), pred.TimeBound)
		}
	}
}

// Type 2: latecomer instances.
func TestRendezvousType2(t *testing.T) {
	cases := []inst.Instance{
		{R: 1.0, X: 1.1, Y: 0, Phi: 0, Tau: 1, V: 1, T: 1.0, Chi: 1},
		{R: 0.8, X: 0.9, Y: 0.3, Phi: 0, Tau: 1, V: 1, T: 1.2, Chi: 1},
		{R: 0.9, X: 0, Y: -1.1, Phi: 0, Tau: 1, V: 1, T: 1.4, Chi: 1},
	}
	s := Compact()
	for k, in := range cases {
		if in.TypeOf() != inst.Type2 {
			t.Fatalf("case %d not type 2: %v", k, in)
		}
		res, pg := simulate(in, s, 100_000_000)
		if !res.Met {
			t.Fatalf("case %d: no rendezvous: %v\n%v (phase %d, block %d)", k, res, in, pg.Phase, pg.Block)
		}
	}
}

// Type 4: τ = 1 with speed or orientation asymmetry, arbitrary delay.
func TestRendezvousType4(t *testing.T) {
	cases := []inst.Instance{
		{R: 0.8, X: 0.9, Y: 0.1, Phi: 0, Tau: 1, V: 1.5, T: 2, Chi: 1},
		{R: 0.8, X: 0.9, Y: 0.2, Phi: 1.1, Tau: 1, V: 1, T: 1.5, Chi: 1},
		{R: 0.9, X: 1.0, Y: -0.2, Phi: 2.5, Tau: 1, V: 1.4, T: 3, Chi: -1},
	}
	s := Compact()
	for k, in := range cases {
		if in.TypeOf() != inst.Type4 {
			t.Fatalf("case %d not type 4: %v", k, in)
		}
		res, pg := simulate(in, s, 400_000_000)
		if !res.Met {
			t.Fatalf("case %d: no rendezvous: %v\n%v (phase %d, block %d)", k, res, in, pg.Phase, pg.Block)
		}
	}
}

// Type 1: mirrored synchronous instances with delay above the projection
// threshold.
func TestRendezvousType1(t *testing.T) {
	cases := []inst.Instance{
		{R: 1.0, X: 1.2, Y: 0.4, Phi: 1.0, Tau: 1, V: 1, T: 1.5, Chi: -1},
		{R: 0.9, X: 1.1, Y: 0, Phi: 0, Tau: 1, V: 1, T: 1.0, Chi: -1},
		{R: 1.0, X: 0.8, Y: 0.8, Phi: 2.0, Tau: 1, V: 1, T: 2.0, Chi: -1},
	}
	s := Compact()
	for k, in := range cases {
		if in.TypeOf() != inst.Type1 {
			t.Fatalf("case %d not type 1: %v", k, in)
		}
		res, pg := simulate(in, s, 400_000_000)
		if !res.Met {
			t.Fatalf("case %d: no rendezvous: %v\n%v (phase %d, block %d)", k, res, in, pg.Phase, pg.Block)
		}
	}
}

// Exception sets. A subtlety the reproduction surfaces: AURV *does* meet
// an S1 instance whose direction to B exactly matches one of its dyadic
// sweep directions (the gap touches exactly r, which is rendezvous).
// The paper's claim is weaker and about universality: no single algorithm
// handles all of S1, because any algorithm has countably many segment
// inclinations. So:
//   - aligned boundary instances meet (at gap exactly r);
//   - generic-angle boundary instances never get below r and do not meet
//     within any simulable horizon.
func TestBoundaryS1AlignedMeetsAtExactlyR(t *testing.T) {
	in := inst.Instance{R: 0.5, X: 2, Y: 0, Phi: 0, Tau: 1, V: 1, T: 1.5, Chi: 1}
	if !in.InS1() {
		t.Fatal("not an S1 instance")
	}
	res, _ := simulate(in, Compact(), 5_000_000)
	if !res.Met {
		t.Fatalf("aligned S1 instance did not meet: %v", res)
	}
	if math.Abs(res.MinGap-in.R) > 1e-6 {
		t.Errorf("aligned S1 met at gap %v, want exactly r=%v", res.MinGap, in.R)
	}
}

func TestBoundaryS1GenericNoMeet(t *testing.T) {
	// b0 at angle 1 rad: never exactly on the dyadic direction grid.
	d := 2.0
	in := inst.Instance{R: 0.5, X: d * math.Cos(1), Y: d * math.Sin(1),
		Phi: 0, Tau: 1, V: 1, T: d - 0.5, Chi: 1}
	if !in.InS1() {
		t.Fatal("not an S1 instance")
	}
	res, _ := simulate(in, Compact(), 5_000_000)
	if res.Met {
		t.Fatalf("generic S1 instance met under AURV: %v", res)
	}
	// Analytic invariant: gap ≥ d − t = r at all times.
	if res.MinGap < in.R-1e-6 {
		t.Errorf("gap %v dropped below r=%v", res.MinGap, in.R)
	}
}

func TestInfeasibleNoMeet(t *testing.T) {
	in := inst.Instance{R: 0.5, X: 2, Y: 0, Phi: 0, Tau: 1, V: 1, T: 0.7, Chi: 1}
	if in.Feasible() {
		t.Fatal("instance unexpectedly feasible")
	}
	res, _ := simulate(in, Compact(), 5_000_000)
	if res.Met {
		t.Fatalf("infeasible instance met: %v", res)
	}
	if res.MinGap < in.Dist()-in.T-1e-6 {
		t.Errorf("gap %v below analytic bound %v", res.MinGap, in.Dist()-in.T)
	}
}

func TestFaithfulScheduleConstants(t *testing.T) {
	f := Faithful()
	// The printed constants: block-3 wait exponent 15 i².
	for i := 1; i <= 3; i++ {
		if got := f.Type3WaitExp(i); got != 15*float64(i*i) {
			t.Errorf("faithful wait exp(%d) = %v", i, got)
		}
	}
	// The faithful separation inequality of Claim 3.9, checked
	// symbolically: 2^{15i²-i-1} > 2^i for all i ≥ 1 (the end of the
	// claim's derivation).
	for i := 1; i <= 8; i++ {
		lhs := 15*float64(i*i) - float64(i) - 1
		if lhs <= float64(i) {
			t.Errorf("claim 3.9 exponent inequality fails at i=%d", i)
		}
	}
}

// The dd-clock showcase: under the faithful CGKK schedule (waits 2^15,
// 2^60, …) an instance whose radius is too small for the phase-1 search
// granularity must wait out the printed 2^60-time-unit phase-2 wait — and
// the simulator still resolves the sub-unit meeting geometry on the other
// side of it. A plain float64 clock has ULP 256 at 2^60; the
// double-double clock keeps ~2^-46. The instance is engineered so every
// phase-1 scan line misses (nearest passes 0.21 and 0.23 > r = 0.2).
func TestFaithfulPhase2HugeWait(t *testing.T) {
	in := inst.Instance{R: 0.2, X: 1.2, Y: 0.73, Phi: 0.7, Tau: 2, V: 0.5, T: 0, Chi: 1}
	s := cgkk.Faithful()
	phase, ok := cgkk.PredictPhase(in, s)
	if !ok {
		t.Fatal("no prediction under faithful schedule")
	}
	if phase != 2 {
		t.Fatalf("predicted phase %d, want 2 (radius forces the 2^60 wait)", phase)
	}
	set := sim.DefaultSettings()
	set.MaxTime = 1e19 // beyond the 2^60 ≈ 1.15e18 wait
	set.MaxSegments = 10_000_000
	a := sim.AgentSpec{Attrs: in.AgentA(), Prog: cgkk.Program(s), Radius: in.R}
	b := sim.AgentSpec{Attrs: in.AgentB(), Prog: cgkk.Program(s), Radius: in.R}
	res := sim.Run(a, b, set)
	if !res.Met {
		t.Fatalf("no rendezvous: %v", res)
	}
	huge := math.Ldexp(1, 60)
	if res.MeetTime.Float64() < huge {
		t.Fatalf("met at %v, before the phase-2 wait elapsed", res.MeetTime.Float64())
	}
	// The meeting's sub-unit geometry must be resolvable: the offset past
	// the wait is a small number that a float64 clock could not separate
	// from the 2^60 base (ULP 256 there).
	offset := res.MeetTime.SubFloat(huge).Float64()
	if offset <= 0 || offset > 1e9 {
		t.Errorf("offset past the wait = %v, expected a small positive value", offset)
	}
	if bound, ok := cgkk.MeetTimeBound(in, s); ok && res.MeetTime.Float64() > bound {
		t.Errorf("met at %v after bound %v", res.MeetTime.Float64(), bound)
	}
}

func TestCumulativeDurationMonotone(t *testing.T) {
	s := Compact()
	prev := 0.0
	for i := 1; i <= 6; i++ {
		c := CumulativeDuration(i, s)
		if c <= prev {
			t.Fatalf("not increasing at %d", i)
		}
		prev = c
	}
}

func TestPredictPhaseTypeNone(t *testing.T) {
	in := inst.Instance{R: 0.5, X: 2, Y: 0, Phi: 0, Tau: 1, V: 1, T: 0, Chi: 1}
	if _, ok := PredictPhase(in, Compact()); ok {
		t.Error("prediction for TypeNone instance")
	}
}
