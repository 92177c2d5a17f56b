// Package cgkk implements the CGKK substrate procedure used by
// Algorithm 1 of the paper.
//
// The paper imports CGKK from reference [18] (Czyzowicz, Gąsieniec,
// Killick, Kranakis, PODC 2019), whose pseudocode is not part of the
// reproduced text. Only its contract matters to the paper's proofs:
//
//	CGKK guarantees rendezvous for every instance with simultaneous
//	wake-up (t = 0) that is (1) non-synchronous, or (2) has different
//	orientations and the same chirality (φ ≠ 0, χ = 1).
//
// We rebuild a procedure with exactly this contract (the substitution is
// documented in DESIGN.md §3). The construction unifies two mechanisms
// under a single schedule
//
//		for i = 1, 2, …: { wait(W(i)); PlanarCowWalk(i) }
//
//	  - Different clocks (τ ≠ 1): the super-increasing waits make the
//	    faster-clock agent's schedule slide ahead of the other's until it
//	    performs a complete planar search while the other agent is still
//	    inside a wait — the paper's own type-3 mechanism (Claims 3.8–3.10)
//	    specialised to t = 0.
//	  - Same clocks (τ = 1): both agents execute each instruction at the
//	    same absolute moment, so B's position is the affine image
//	    q_B(s) = b₀ + T·q_A(s) with T = v·R_φ·S_χ. Whenever T has no
//	    eigenvalue 1 — i.e. unless v = 1 and (φ = 0, χ = +1, or χ = −1) —
//	    the gap |q_B − q_A| = |(T−I)(q_A − p*)| vanishes at the fixed point
//	    p* = −(T−I)⁻¹b₀, and the planar cow-walk passes within 2^{−(i+1)}
//	    of p* once 2^i ≥ |p*|, forcing the gap below r.
//
// The union of the two mechanisms is exactly the CGKK contract.
package cgkk

import (
	"math"

	"repro/internal/geom"
	"repro/internal/inst"
	"repro/internal/prog"
	"repro/internal/walk"
)

// Schedule parameterizes the wait growth. WaitExp(i) is the exponent w
// such that phase i waits 2^w local time units before its search.
type Schedule struct {
	Name    string
	WaitExp func(i int) float64
}

// Faithful mirrors the paper's type-3 schedule growth 2^(15 i²). With the
// double-double clock it is simulable through phase 2; use Compact for
// experiments.
func Faithful() Schedule {
	return Schedule{
		Name:    "faithful",
		WaitExp: func(i int) float64 { return 15 * float64(i) * float64(i) },
	}
}

// Compact grows waits as 2^(10 i): still super-increasing relative to the
// search durations (2^{3i+5}), resolvable by the dd clock through phase
// ~8, and sufficient for every bounded-parameter family used in the
// experiments (PredictPhase re-derives the separation inequality per
// instance before trusting it).
func Compact() Schedule {
	return Schedule{
		Name:    "compact",
		WaitExp: func(i int) float64 { return 10 * float64(i) },
	}
}

// ZeroWait removes the drift waits entirely, leaving only the lockstep
// fixed-point mechanism. This variant is what Algorithm 1's block 4 uses:
// type-4 instances always have τ = 1 (the τ ≠ 1 instances belong to
// block 3), so the drift waits would only inflate the rendezvous time Δ —
// and with it the phase index i ≥ log₂(t + Δ + 4(v+1)/r) at which block 4
// fires, beyond anything simulable.
func ZeroWait() Schedule {
	return Schedule{
		Name:    "zero-wait",
		WaitExp: func(int) float64 { return math.Inf(-1) }, // 2^{-∞} = 0
	}
}

// Program returns the CGKK procedure as an infinite program.
func Program(s Schedule) prog.Program {
	return func() prog.Cursor { return ProgramCursor(s) }
}

// ProgramCursor returns the procedure as a bare single-use cursor (the
// allocation-lean spelling block 4 of Algorithm 1 budgets and slices
// once per phase).
func ProgramCursor(s Schedule) prog.Cursor {
	return prog.ForeverCursor(func(i int) prog.Cursor {
		return prog.SeqOf(
			prog.InstrsCursor(prog.Wait(math.Exp2(s.WaitExp(i)))),
			walk.NewPlanar(i),
		)
	})
}

// TransformB returns T = v·R_φ·S_χ, the linear map relating the two
// agents' lockstep trajectories for τ = 1 instances: q_B = b₀ + T·q_A.
func TransformB(in inst.Instance) geom.Mat2 {
	m := geom.Rotation(in.Phi)
	if in.Chi < 0 {
		m = m.Mul(geom.FlipY)
	}
	return m.Scale(in.V)
}

// FixedPoint returns p* = −(T−I)⁻¹·b₀, the point of A's private plane at
// which the lockstep gap vanishes, and true; or false when T−I is
// singular (v = 1 with φ = 0 ∧ χ = 1, or χ = −1), in which case the
// fixed-point mechanism does not apply.
func FixedPoint(in inst.Instance) (geom.Vec2, bool) {
	ti := TransformB(in).Sub(geom.Identity)
	inv, ok := ti.Inverse()
	if !ok {
		return geom.Vec2{}, false
	}
	return inv.Apply(in.B0()).Neg(), true
}

// Covered reports whether the instance is inside the CGKK contract:
// t = 0 and (non-synchronous or (φ ≠ 0 ∧ χ = 1)).
func Covered(in inst.Instance) bool {
	if in.T != 0 {
		return false
	}
	return !in.Synchronous() || (in.Phi != 0 && in.Chi == 1)
}

// PredictPhase returns the phase by whose end rendezvous is guaranteed
// for a covered instance under the given schedule, and true; or false
// when the instance is outside the contract or the schedule's separation
// inequality cannot be established for it (only possible with non-default
// schedules on extreme parameters).
func PredictPhase(in inst.Instance, s Schedule) (int, bool) {
	if !Covered(in) {
		return 0, false
	}
	if in.Tau != 1 {
		return predictDrift(in, s)
	}
	return predictFixedPoint(in)
}

// predictFixedPoint: phase i meets once the walk's covered square holds
// p* and its passing gap ‖T−I‖·2^{−(i+1)} is below r.
func predictFixedPoint(in inst.Instance) (int, bool) {
	p, ok := FixedPoint(in)
	if !ok {
		return 0, false
	}
	norm := TransformB(in).Sub(geom.Identity).OpNorm()
	i := 1
	for ; i < 64; i++ {
		reach := math.Abs(p.X) <= walk.CoverRadius(i) && math.Abs(p.Y) <= walk.CoverRadius(i)
		fine := norm*walk.CoverGap(i) < in.R
		if reach && fine {
			return i, true
		}
	}
	return 0, false
}

// predictDrift: the faster-clock agent X (period τmin) must start its
// phase-i search after the slower agent Y started its phase-i wait, and
// finish before Y's wait ends. Writing C(i) for the local time consumed
// by phases 1..i−1 plus phase i's wait, and D(i) for the search duration,
// the two conditions are
//
//	(C(i)) · τmin ≥ (C(i) − 2^{w(i)} ) · τmax            (X starts late enough)
//	(C(i) + D(i)) · τmin ≤ C(i) · τmax                   (X finishes early enough)
//
// plus coverage: the search square (in X's units) must contain the other
// agent's start and have passing gap ≤ r.
func predictDrift(in inst.Instance, s Schedule) (int, bool) {
	tauMin, tauMax := in.Tau, 1.0
	uX := in.Tau * in.V // unit of the faster agent if it is B
	if tauMin > tauMax {
		tauMin, tauMax = tauMax, tauMin
		uX = 1.0 // A is the faster agent
	}
	d := in.Dist()
	cum := 0.0 // local duration of phases 1..i-1
	for i := 1; i < 64; i++ {
		w := math.Exp2(s.WaitExp(i))
		D := walk.PlanarDuration(i)
		c := cum + w
		startOK := c*tauMin >= (c-w)*tauMax
		finishOK := (c+D)*tauMin <= c*tauMax
		reach := walk.CoverRadius(i)*uX >= d
		fine := walk.CoverGap(i)*uX <= in.R
		if startOK && finishOK && reach && fine {
			return i, true
		}
		cum += w + D
		if !isFinite(cum) {
			break
		}
	}
	return 0, false
}

func isFinite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// CumulativeLocal returns the local-time length of phases 1..i under the
// schedule.
func CumulativeLocal(i int, s Schedule) float64 {
	sum := 0.0
	for j := 1; j <= i; j++ {
		sum += math.Exp2(s.WaitExp(j)) + walk.PlanarDuration(j)
	}
	return sum
}

// MeetTimeBound returns an upper bound on the absolute rendezvous time of
// the procedure on a covered instance, and true; false when PredictPhase
// fails. For τ = 1 (lockstep) instances the bound is the local length of
// the phases through the predicted one; for τ ≠ 1 it is scaled by the
// slower clock.
func MeetTimeBound(in inst.Instance, s Schedule) (float64, bool) {
	i, ok := PredictPhase(in, s)
	if !ok {
		return 0, false
	}
	tauMax := math.Max(1, in.Tau)
	return CumulativeLocal(i, s) * tauMax, true
}
