package geom

import "math"

// Moving describes a point moving with constant velocity: position
// P + s·V at parameter s ≥ 0.
type Moving struct {
	P Vec2 // position at s = 0
	V Vec2 // velocity
}

// At returns the position at parameter s.
func (m Moving) At(s float64) Vec2 { return m.P.Add(m.V.Scale(s)) }

// Approach holds the result of a closest-approach query between two
// moving points over a parameter interval [0, T].
type Approach struct {
	SMin float64 // parameter of the minimum distance, in [0, T]
	DMin float64 // the minimum distance
}

// ClosestApproach computes the minimum distance between two points moving
// with constant velocities over the parameter interval [0, T].
//
// The squared distance D(s) = |Δp + s·Δv|² is a convex quadratic, so the
// minimum is at the clamped vertex (see ClosestOffset).
func ClosestApproach(a, b Moving, T float64) Approach {
	s, d := ClosestOffset(a, b, T)
	return Approach{s, d.Norm()}
}

// ClosestOffset returns the parameter s in [0, T] of closest approach and
// the separation vector Δp + s·Δv at that parameter, whose norm is the
// minimum distance. Callers that only need the distance when it can
// matter test the vector first (Vec2.NormExceeds) and skip the Hypot.
func ClosestOffset(a, b Moving, T float64) (float64, Vec2) {
	dp := a.P.Sub(b.P)
	dv := a.V.Sub(b.V)
	vv := dv.Norm2()
	if vv == 0 {
		return 0, dp
	}
	s := -dp.Dot(dv) / vv
	if s < 0 {
		s = 0
	} else if s > T {
		s = T
	}
	return s, dp.Add(dv.Scale(s))
}

// FirstWithin returns the earliest parameter s in [0, T] at which the two
// moving points are at distance ≤ r, and true; or 0 and false when they
// never come within r during the interval.
//
// Solving |Δp + s·Δv|² = r² gives a quadratic in s; the earliest root in
// range (or s = 0 when already within r) is returned. The computation is
// exact up to float64 rounding — no time stepping is involved, which is
// what lets the simulator take arbitrarily long segments in O(1).
func FirstWithin(a, b Moving, T, r float64) (float64, bool) {
	dp := a.P.Sub(b.P)
	dv := a.V.Sub(b.V)
	c := dp.Norm2() - r*r
	if c <= 0 {
		return 0, true // already within r at the start
	}
	vv := dv.Norm2()
	if vv == 0 {
		return 0, false // constant gap, never closes
	}
	bHalf := dp.Dot(dv)
	// s² vv + 2 s bHalf + c = 0
	disc := bHalf*bHalf - vv*c
	if disc < 0 {
		return 0, false
	}
	sq := math.Sqrt(disc)
	// Numerically stable smaller root: with c > 0 both roots share the
	// sign of -bHalf; the smaller positive root exists only if bHalf < 0.
	if bHalf >= 0 {
		return 0, false // moving apart (or parallel): gap only grows
	}
	// Standard stable quadratic formula: q = -(bHalf - sq)… take care of
	// signs: roots are (-bHalf ± sq)/vv. Smaller root via c/(q) form.
	q := -bHalf + sq
	s := c / q
	if s >= 0 && s <= T {
		return s, true
	}
	return 0, false
}

// GapAt returns the distance between the two moving points at parameter s.
func GapAt(a, b Moving, s float64) float64 {
	return a.At(s).Dist(b.At(s))
}
