// Package latecomers implements the Latecomers substrate procedure
// (Algorithm GATHER(2) of reference [38], Pelc–Yadav ICDCN 2020) used by
// block 2 of Algorithm 1.
//
// Only its contract matters to the paper: Latecomers guarantees
// rendezvous for every instance with τ = v = 1, φ = 0, χ = 1 and
// t > d − r (the "good configurations" of [38] for n = 2). The original
// pseudocode is not part of the reproduced text, so we rebuild a
// procedure with exactly this contract (substitution documented in
// DESIGN.md §3).
//
// Construction. Both agents share clocks, speeds, units and axis
// orientations, so B's trajectory is A's delayed by t and shifted by b₀.
// Phase k executes, in order:
//
//  1. a run-wait sweep: for each direction û = angle jπ/2^k
//     (j = 0..2^{k+1}−1): go 2^k along û, wait 2^{2k}, walk back;
//  2. PlanarCowWalk(k).
//
// Mechanism 1 (B awake): while A waits at the far endpoint of the run
// nearest to the direction of b₀, B — lagging t — sweeps its own run, and
// the gap passes through |b₀ − ξû| for ξ ∈ [max(t−2^{2k},0), min(t,2^k)].
// Its minimum drops below r once the angle error δ to b₀'s direction
// satisfies (d−t)²₊ + t·d·δ² ≤ r², which the doubling directional grid
// eventually guarantees for any margin e = t−(d−r) > 0 (with
// 2^k ≥ d and 2^{2k} ≥ t − d).
//
// Mechanism 2 (B asleep): if t exceeds the whole program prefix, B is
// still at b₀ during a complete PlanarCowWalk(k) with 2^k ≥ d and
// 2^{−(k+1)} ≤ r, which passes within r of b₀.
//
// Every t > d − r falls to one of the two mechanisms. The sweep runs
// before the planar walk so that small-t instances meet within the first
// few dozen time units, keeping the enclosing block-2 phase index of
// Algorithm 1 small enough to simulate.
package latecomers

import (
	"math"

	"repro/internal/geom"
	"repro/internal/inst"
	"repro/internal/prog"
	"repro/internal/walk"
)

// sweepCursor generates the run-wait sweep of phase k procedurally:
// direction j emits go(û_j, l), wait(w), go(û_j+π, l) — the stream of
// walk.RunWait over the doubling direction grid, without constructing
// (and probing) a 3-instruction program per direction.
type sweepCursor struct {
	k, dirs, j, sub int
	l, w            float64
	theta           float64 // û_j angle, computed once per direction
}

func (c *sweepCursor) Next() (prog.Instr, bool) {
	if c.j >= c.dirs {
		return prog.Instr{}, false
	}
	var ins prog.Instr
	switch c.sub {
	case 0:
		c.theta = geom.DyadicAngle(c.j, c.k)
		ins = prog.Move(c.theta, c.l)
	case 1:
		ins = prog.Wait(c.w)
	case 2:
		ins = prog.Move(c.theta+math.Pi, c.l)
	}
	if c.sub++; c.sub == 3 {
		c.sub, c.j = 0, c.j+1
	}
	return ins, true
}

func (c *sweepCursor) Close() { c.j = c.dirs }

// phaseCursor returns phase k as a bare single-use cursor.
func phaseCursor(k int) prog.Cursor {
	l := math.Ldexp(1, k)   // run length 2^k
	w := math.Ldexp(1, 2*k) // far-end wait 2^{2k}
	dirs := 1 << uint(k+1)  // 2^{k+1} directions
	return prog.SeqOf(
		&sweepCursor{k: k, dirs: dirs, l: l, w: w},
		walk.NewPlanar(k),
	)
}

// Phase returns phase k of the procedure (both mechanisms, sweep first).
func Phase(k int) prog.Program {
	return func() prog.Cursor { return phaseCursor(k) }
}

// Program returns the full infinite procedure.
func Program() prog.Program {
	return func() prog.Cursor { return ProgramCursor() }
}

// ProgramCursor returns the procedure as a bare single-use cursor (the
// allocation-lean spelling block 2 of Algorithm 1 budgets once per
// phase).
func ProgramCursor() prog.Cursor {
	return prog.ForeverCursor(phaseCursor)
}

// PhaseDuration returns the local-time duration of Phase(k).
func PhaseDuration(k int) float64 {
	l := math.Ldexp(1, k)
	w := math.Ldexp(1, 2*k)
	dirs := math.Ldexp(1, k+1)
	return dirs*walk.RunWaitDuration(l, w) + walk.PlanarDuration(k)
}

// Covered reports whether the instance is inside the Latecomers contract.
func Covered(in inst.Instance) bool {
	return in.Synchronous() && in.Chi == 1 && in.Phi == 0 &&
		in.T > in.Dist()-in.R
}

// PredictPhase returns a phase k by whose end rendezvous is guaranteed
// for a covered instance, along with the mechanism that fires
// ("sweep" or "planar"). It mirrors the analysis above; the returned
// phase is an upper bound — runs usually meet earlier.
func PredictPhase(in inst.Instance) (k int, mech string, ok bool) {
	if !Covered(in) {
		return 0, "", false
	}
	d := in.Dist()
	t := in.T
	cum := 0.0
	for k = 1; k < 40; k++ {
		// Mechanism 2: B asleep through phase k's planar walk. The walk of
		// phase k starts after cum + sweep(k) local time.
		l := math.Ldexp(1, k)
		w := math.Ldexp(1, 2*k)
		sweep := math.Ldexp(1, k+1) * walk.RunWaitDuration(l, w)
		if t >= cum+sweep+walk.PlanarDuration(k) &&
			walk.CoverRadius(k) >= d && walk.CoverGap(k) <= in.R {
			return k, "planar", true
		}
		// Mechanism 1: the sweep direction nearest to b₀.
		delta := nearestDirErr(in.B0(), k)
		if sweepMeets(d, t, in.R, delta, l, w) {
			return k, "sweep", true
		}
		cum += PhaseDuration(k)
	}
	return 0, "", false
}

// nearestDirErr returns the angle between b₀ and the closest sweep
// direction jπ/2^k.
func nearestDirErr(b0 geom.Vec2, k int) float64 {
	theta := b0.Angle()
	step := math.Pi / math.Ldexp(1, k)
	j := math.Round(theta / step)
	return math.Abs(theta - j*step)
}

// sweepMeets checks mechanism 1's gap condition for angle error delta:
// the minimum of |b₀ − ξû| over the reachable ξ range is ≤ r.
func sweepMeets(d, t, r, delta, l, w float64) bool {
	lo := math.Max(t-w, 0)
	hi := math.Min(t, l)
	if lo > hi {
		return false
	}
	xi := d * math.Cos(delta) // unconstrained minimizer
	xi = math.Max(lo, math.Min(hi, xi))
	gap2 := d*d + xi*xi - 2*xi*d*math.Cos(delta)
	return gap2 <= r*r
}
