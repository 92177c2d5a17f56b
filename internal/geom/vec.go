// Package geom provides the planar geometry substrate for the rendezvous
// system: vectors, rotations and reflections, lines and orthogonal
// projections, and the closest-approach kernels used by the simulator to
// detect sight events between two linearly moving agents.
//
// All types are small value types designed to be allocation-free in hot
// paths.
package geom

import "math"

// Vec2 is a point or displacement in the plane.
type Vec2 struct {
	X, Y float64
}

// V is shorthand for Vec2{x, y}.
func V(x, y float64) Vec2 { return Vec2{x, y} }

// Add returns a + b.
func (a Vec2) Add(b Vec2) Vec2 { return Vec2{a.X + b.X, a.Y + b.Y} }

// Sub returns a - b.
func (a Vec2) Sub(b Vec2) Vec2 { return Vec2{a.X - b.X, a.Y - b.Y} }

// Scale returns k * a.
func (a Vec2) Scale(k float64) Vec2 { return Vec2{k * a.X, k * a.Y} }

// Neg returns -a.
func (a Vec2) Neg() Vec2 { return Vec2{-a.X, -a.Y} }

// Dot returns the scalar product a·b.
func (a Vec2) Dot(b Vec2) float64 { return a.X*b.X + a.Y*b.Y }

// Cross returns the z-component of the 3D cross product a×b, i.e. the
// signed area of the parallelogram spanned by a and b.
func (a Vec2) Cross(b Vec2) float64 { return a.X*b.Y - a.Y*b.X }

// Norm returns the Euclidean length |a|. It is robust against
// intermediate overflow via math.Hypot.
func (a Vec2) Norm() float64 { return math.Hypot(a.X, a.Y) }

// Norm2 returns |a|² without a square root.
func (a Vec2) Norm2() float64 { return a.X*a.X + a.Y*a.Y }

// Bounds of NormExceeds: the relative margin on the squared comparison
// and the magnitude range inside which no square can underflow or
// overflow.
const (
	normGateMargin = 0x1p-40
	normGateLo     = 0x1p-500
	normGateHi     = 0x1p+500
)

// NormExceeds reports whether a.Norm() > m is certain from the squared
// norm alone, letting a caller that only needs the norm when it is at
// most m skip the Hypot. A false result means "not certain": the caller
// must compute Norm. The test fires only when m and every nonzero
// component of a lie in [2^-500, 2^500], so that neither square
// underflows or overflows, and the squared comparison carries a 2^-40
// relative margin: fl(x²+y²) and Hypot each err by a few ulps, so
// a.Norm2() > m²(1+2^-40) implies Hypot(x, y) > m (DESIGN.md §14).
func (a Vec2) NormExceeds(m float64) bool {
	if !(m >= normGateLo && m <= normGateHi) {
		return false // also rejects NaN and +Inf
	}
	ax, ay := math.Abs(a.X), math.Abs(a.Y)
	if !(ax <= normGateHi && ay <= normGateHi) ||
		(ax != 0 && ax < normGateLo) || (ay != 0 && ay < normGateLo) {
		return false
	}
	return a.Norm2() > m*m*(1+normGateMargin)
}

// Dist returns the Euclidean distance between points a and b.
func (a Vec2) Dist(b Vec2) float64 { return a.Sub(b).Norm() }

// Unit returns a / |a|. The zero vector is returned unchanged.
func (a Vec2) Unit() Vec2 {
	n := a.Norm()
	if n == 0 {
		return a
	}
	return Vec2{a.X / n, a.Y / n}
}

// Perp returns a rotated by +90 degrees (counterclockwise).
func (a Vec2) Perp() Vec2 { return Vec2{-a.Y, a.X} }

// Angle returns the polar angle of a in (-π, π].
func (a Vec2) Angle() float64 { return math.Atan2(a.Y, a.X) }

// Lerp returns the point (1-s)a + s·b.
func (a Vec2) Lerp(b Vec2, s float64) Vec2 {
	return Vec2{a.X + s*(b.X-a.X), a.Y + s*(b.Y-a.Y)}
}

// IsFinite reports whether both coordinates are finite numbers.
func (a Vec2) IsFinite() bool {
	return !math.IsNaN(a.X) && !math.IsInf(a.X, 0) &&
		!math.IsNaN(a.Y) && !math.IsInf(a.Y, 0)
}

// Polar returns the unit vector at polar angle theta. Components whose
// magnitude is below 1e-15 are snapped to 0 (with the other renormalized
// to ±1) so that compass directions — multiples of π/2, ubiquitous in the
// paper's walks — are exact and axis-aligned moves do not accumulate
// cross-axis drift.
func Polar(theta float64) Vec2 {
	s, c := math.Sincos(theta)
	if math.Abs(s) < 1e-15 {
		s = 0
		c = math.Copysign(1, c)
	} else if math.Abs(c) < 1e-15 {
		c = 0
		s = math.Copysign(1, s)
	}
	return Vec2{c, s}
}

// ApproxEqual reports whether a and b agree within absolute tolerance tol
// in each coordinate.
func (a Vec2) ApproxEqual(b Vec2, tol float64) bool {
	return math.Abs(a.X-b.X) <= tol && math.Abs(a.Y-b.Y) <= tol
}
