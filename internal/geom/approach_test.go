package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestClosestApproachHeadOn(t *testing.T) {
	// Two points approaching head-on along the x-axis pass through
	// distance 0 at s = 5.
	a := Moving{V(0, 0), V(1, 0)}
	b := Moving{V(10, 0), V(-1, 0)}
	ap := ClosestApproach(a, b, 100)
	if math.Abs(ap.SMin-5) > tol || ap.DMin > tol {
		t.Errorf("head-on: %+v", ap)
	}
}

func TestClosestApproachParallel(t *testing.T) {
	a := Moving{V(0, 0), V(1, 0)}
	b := Moving{V(0, 3), V(1, 0)}
	ap := ClosestApproach(a, b, 100)
	if math.Abs(ap.DMin-3) > tol {
		t.Errorf("parallel gap: %+v", ap)
	}
}

func TestClosestApproachClamped(t *testing.T) {
	// Vertex at s = 5 but interval only reaches s = 2: minimum at s = 2.
	a := Moving{V(0, 0), V(1, 0)}
	b := Moving{V(10, 1), V(-1, 0)}
	ap := ClosestApproach(a, b, 2)
	if ap.SMin != 2 {
		t.Errorf("clamped smin = %v", ap.SMin)
	}
	want := GapAt(a, b, 2)
	if math.Abs(ap.DMin-want) > tol {
		t.Errorf("clamped dmin = %v, want %v", ap.DMin, want)
	}
	// Receding points: minimum at s = 0.
	c := Moving{V(10, 1), V(1, 0)}
	ap = ClosestApproach(a, c, 10)
	if ap.SMin != 0 {
		t.Errorf("receding smin = %v", ap.SMin)
	}
}

func TestFirstWithinExact(t *testing.T) {
	// Gap shrinks from 10 at rate 2; reaches r = 4 at s = 3.
	a := Moving{V(0, 0), V(1, 0)}
	b := Moving{V(10, 0), V(-1, 0)}
	s, ok := FirstWithin(a, b, 100, 4)
	if !ok || math.Abs(s-3) > tol {
		t.Errorf("FirstWithin = %v, %v", s, ok)
	}
}

func TestFirstWithinAlreadyInside(t *testing.T) {
	a := Moving{V(0, 0), V(1, 0)}
	b := Moving{V(1, 0), V(1, 0)}
	s, ok := FirstWithin(a, b, 10, 2)
	if !ok || s != 0 {
		t.Errorf("inside: %v, %v", s, ok)
	}
}

func TestFirstWithinNever(t *testing.T) {
	// Parallel motion, constant gap 3 > r = 1.
	a := Moving{V(0, 0), V(1, 0)}
	b := Moving{V(0, 3), V(1, 0)}
	if _, ok := FirstWithin(a, b, 1000, 1); ok {
		t.Error("parallel points reported within r")
	}
	// Receding points.
	c := Moving{V(5, 0), V(1, 0)}
	if _, ok := FirstWithin(a, c, 1000, 1); ok {
		t.Error("receding points reported within r")
	}
	// Passing at distance 2 > r = 1.
	d := Moving{V(10, 2), V(-1, 0)}
	if _, ok := FirstWithin(a, d, 1000, 1); ok {
		t.Error("far pass reported within r")
	}
}

func TestFirstWithinOutsideInterval(t *testing.T) {
	// Crossing happens at s = 3 but interval ends at 2.
	a := Moving{V(0, 0), V(1, 0)}
	b := Moving{V(10, 0), V(-1, 0)}
	if _, ok := FirstWithin(a, b, 2, 4); ok {
		t.Error("crossing outside interval reported")
	}
}

func TestFirstWithinTangent(t *testing.T) {
	// Closest pass at exactly r: disc == 0 modulo rounding. Pass at
	// vertical distance exactly 1 with r = 1.
	a := Moving{V(0, 0), V(1, 0)}
	b := Moving{V(10, 1), V(-1, 0)}
	s, ok := FirstWithin(a, b, 100, 1+1e-9)
	if !ok {
		t.Fatal("tangent pass with slack not detected")
	}
	if g := GapAt(a, b, s); g > 1+2e-9 {
		t.Errorf("gap at tangent = %v", g)
	}
}

// Property test: FirstWithin agrees with dense sampling of the gap.
func TestQuickFirstWithinVsSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 1500; i++ {
		a := Moving{V(rng.NormFloat64()*5, rng.NormFloat64()*5), V(rng.NormFloat64(), rng.NormFloat64())}
		b := Moving{V(rng.NormFloat64()*5, rng.NormFloat64()*5), V(rng.NormFloat64(), rng.NormFloat64())}
		T := rng.Float64() * 20
		r := rng.Float64() * 3
		s, ok := FirstWithin(a, b, T, r)

		// Dense sampling for ground truth.
		const n = 4000
		sampleHit := false
		var sampleS float64
		for k := 0; k <= n; k++ {
			ss := T * float64(k) / n
			if GapAt(a, b, ss) <= r {
				sampleHit = true
				sampleS = ss
				break
			}
		}
		if ok && GapAt(a, b, s)-r > 1e-6 {
			t.Fatalf("reported hit at s=%v has gap %v > r=%v", s, GapAt(a, b, s), r)
		}
		if ok != sampleHit {
			// Sampling can miss razor-thin tangencies; tolerate only when
			// the analytic minimum is extremely close to r.
			ap := ClosestApproach(a, b, T)
			if math.Abs(ap.DMin-r) > 1e-3 {
				t.Fatalf("disagreement: analytic=%v sampled=%v (dmin=%v r=%v)", ok, sampleHit, ap.DMin, r)
			}
			continue
		}
		if ok && sampleHit && s > sampleS+1e-6 {
			t.Fatalf("analytic first-hit %v later than sampled %v", s, sampleS)
		}
	}
}

// Property test: ClosestApproach DMin lower-bounds all sampled gaps.
func TestQuickClosestApproachIsMin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		a := Moving{V(rng.NormFloat64()*3, rng.NormFloat64()*3), V(rng.NormFloat64(), rng.NormFloat64())}
		b := Moving{V(rng.NormFloat64()*3, rng.NormFloat64()*3), V(rng.NormFloat64(), rng.NormFloat64())}
		T := rng.Float64() * 10
		ap := ClosestApproach(a, b, T)
		for k := 0; k <= 100; k++ {
			ss := T * float64(k) / 100
			if GapAt(a, b, ss) < ap.DMin-1e-9 {
				t.Fatalf("sampled gap below analytic minimum")
			}
		}
		if g := GapAt(a, b, ap.SMin); math.Abs(g-ap.DMin) > 1e-9 {
			t.Fatalf("DMin inconsistent with SMin")
		}
	}
}

// refClosestApproach is ClosestApproach as it stood before it became a
// wrapper over ClosestOffset, frozen as the bit-level specification.
func refClosestApproach(a, b Moving, T float64) Approach {
	dp := a.P.Sub(b.P)
	dv := a.V.Sub(b.V)
	vv := dv.Norm2()
	if vv == 0 {
		return Approach{0, dp.Norm()}
	}
	s := -dp.Dot(dv) / vv
	if s < 0 {
		s = 0
	} else if s > T {
		s = T
	}
	return Approach{s, dp.Add(dv.Scale(s)).Norm()}
}

// TestClosestApproachBitsUnchanged: ClosestApproach returns the exact
// bits of the frozen pre-refactor kernel, on hand-picked edge cases
// (static, parallel, clamped at either end, signed zeros, huge and tiny
// coordinates) and on random draws, and ClosestOffset's vector has the
// norm ClosestApproach reports.
func TestClosestApproachBitsUnchanged(t *testing.T) {
	type tc struct {
		name string
		a, b Moving
		T    float64
	}
	cases := []tc{
		{"static", Moving{V(1, 2), V(0, 0)}, Moving{V(4, 6), V(0, 0)}, 3},
		{"parallel", Moving{V(0, 0), V(1, 0)}, Moving{V(0, 3), V(1, 0)}, 100},
		{"head-on", Moving{V(0, 0), V(1, 0)}, Moving{V(10, 0), V(-1, 0)}, 100},
		{"clamped-high", Moving{V(0, 0), V(1, 0)}, Moving{V(10, 1), V(-1, 0)}, 2},
		{"clamped-low", Moving{V(0, 0), V(1, 0)}, Moving{V(10, 1), V(1.5, 0)}, 9},
		{"signed-zero", Moving{V(math.Copysign(0, -1), 0), V(0, 0)}, Moving{V(0, 0), V(0, 0)}, 1},
		{"zero-span", Moving{V(0, 0), V(1, 1)}, Moving{V(5, 5), V(-1, -1)}, 0},
		{"huge", Moving{V(1e200, 0), V(1e190, 0)}, Moving{V(-1e200, 1e199), V(0, 0)}, 1e12},
		{"tiny", Moving{V(1e-200, 3e-201), V(-1e-210, 0)}, Moving{V(0, 0), V(0, 1e-211)}, 1e12},
		{"subnormal", Moving{V(5e-324, 0), V(0, 0)}, Moving{V(0, 1e-310), V(0, 0)}, 1},
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		sc := math.Pow(10, float64(rng.Intn(40)-20))
		r := func() float64 { return rng.NormFloat64() * sc }
		cases = append(cases, tc{"random", Moving{V(r(), r()), V(r(), r())}, Moving{V(r(), r()), V(r(), r())}, rng.Float64() * 10})
	}
	bits := func(ap Approach) [2]uint64 {
		return [2]uint64{math.Float64bits(ap.SMin), math.Float64bits(ap.DMin)}
	}
	for _, c := range cases {
		got, want := ClosestApproach(c.a, c.b, c.T), refClosestApproach(c.a, c.b, c.T)
		if bits(got) != bits(want) {
			t.Errorf("%s: ClosestApproach %+v, frozen kernel %+v", c.name, got, want)
		}
		s, d := ClosestOffset(c.a, c.b, c.T)
		if bits(Approach{s, d.Norm()}) != bits(want) {
			t.Errorf("%s: ClosestOffset (%v, %v) disagrees with %+v", c.name, s, d, want)
		}
	}
}

// TestNormExceedsEdges pins the gate's fallbacks: anything outside the
// exponent range where every square stays normal and finite — a +Inf
// or NaN bound, gaps near 1e-160 or 1e160, subnormal or huge components
// — must answer false so the caller computes Hypot, and a tie (norm
// exactly m) must answer false so it cannot count as a new minimum.
func TestNormExceedsEdges(t *testing.T) {
	cases := []struct {
		name string
		d    Vec2
		m    float64
		want bool
	}{
		{"clearly above", V(3, 4), 1, true},
		{"axis aligned", V(0, -2), 1, true},
		{"tie", V(3, 4), 5, false},
		{"tie on axis", V(0, 7), 7, false},
		{"below", V(3, 4), 6, false},
		{"within margin", V(3, 4), 5 * (1 - 0x1p-45), false},
		{"first interval", V(3, 4), math.Inf(1), false},
		{"NaN bound", V(3, 4), math.NaN(), false},
		{"NaN component", V(math.NaN(), 4), 1, false},
		{"Inf component", V(math.Inf(-1), 4), 1, false},
		{"bound near 1e-160", V(1e-150, 0), 1e-160, false},
		{"gap near 1e-160", V(1e-160, 1e-160), 1e-170, false},
		{"bound near 1e160", V(1e170, 0), 1e160, false},
		{"gap near 1e160", V(1e160, 1e160), 1, false},
		{"subnormal component", V(5e-324, 3), 1, false},
		{"tiny component", V(1e-155, 3), 1, false},
		{"huge component", V(1e200, 0), 1e100, false},
		{"range edge low", V(0x1p-500, 0), 0x1p-501, false}, // bound below range
		{"range edge high", V(0x1p+500, 0), 0x1p+499, true},
	}
	for _, c := range cases {
		if got := c.d.NormExceeds(c.m); got != c.want {
			t.Errorf("%s: %v.NormExceeds(%v) = %v, want %v", c.name, c.d, c.m, got, c.want)
		}
		if c.d.NormExceeds(c.m) && !(c.d.Norm() > c.m) {
			t.Errorf("%s: gate fired but Norm %v ≤ %v", c.name, c.d.Norm(), c.m)
		}
	}
}

// TestNormExceedsSound: whenever the gate fires, Hypot exceeds the
// bound — over random vectors at every exponent, with bounds drawn at,
// just below and just above the true norm, and far from it.
func TestNormExceedsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	fired := 0
	for i := 0; i < 200_000; i++ {
		e := rng.Intn(1300) - 650
		d := V(math.Ldexp(rng.NormFloat64(), e), math.Ldexp(rng.NormFloat64(), e+rng.Intn(7)-3))
		if rng.Intn(8) == 0 {
			d.Y = 0
		}
		n := d.Norm()
		for _, m := range []float64{
			n, math.Nextafter(n, 0), math.Nextafter(n, math.Inf(1)),
			n * (1 - 0x1p-42), n * (1 - 0x1p-38), n * rng.Float64(),
		} {
			if d.NormExceeds(m) {
				fired++
				if !(n > m) {
					t.Fatalf("%v.NormExceeds(%v) fired but Norm = %v", d, m, n)
				}
			}
		}
	}
	if fired == 0 {
		t.Fatal("gate never fired: the test exercises nothing")
	}
}
