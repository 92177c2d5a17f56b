package walk

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/prog"
)

// polyline folds a finite program into the local polyline it traces.
func polyline(p prog.Program) []geom.Vec2 {
	pts := []geom.Vec2{{}}
	cur := geom.Vec2{}
	for ins := range prog.All(p) {
		if ins.Op == prog.OpMove {
			cur = cur.Add(geom.Polar(ins.Theta).Scale(ins.Amount))
			pts = append(pts, cur)
		}
	}
	return pts
}

// distToPolyline returns the minimum distance from q to the polyline.
func distToPolyline(pts []geom.Vec2, q geom.Vec2) float64 {
	best := math.Inf(1)
	for i := 0; i+1 < len(pts); i++ {
		a, b := pts[i], pts[i+1]
		ab := b.Sub(a)
		den := ab.Norm2()
		s := 0.0
		if den > 0 {
			s = q.Sub(a).Dot(ab) / den
			s = math.Max(0, math.Min(1, s))
		}
		if d := q.Dist(a.Add(ab.Scale(s))); d < best {
			best = d
		}
	}
	return best
}

func TestLinearStructure(t *testing.T) {
	got := prog.Collect(Linear(2))
	if len(got) != 6 {
		t.Fatalf("Linear(2) has %d instrs", len(got))
	}
	// Step 1: E2, W4, E2; step 2: E4, W8, E4.
	wantAmt := []float64{2, 4, 2, 4, 8, 4}
	for k, ins := range got {
		if ins.Amount != wantAmt[k] {
			t.Errorf("instr %d amount = %v, want %v", k, ins.Amount, wantAmt[k])
		}
	}
}

func TestLinearReturnsToOrigin(t *testing.T) {
	for i := 1; i <= 6; i++ {
		dx, dy := prog.Displacement(Linear(i))
		if math.Abs(dx) > 1e-9 || math.Abs(dy) > 1e-9 {
			t.Errorf("Linear(%d) displacement (%v,%v)", i, dx, dy)
		}
	}
}

func TestLinearCoversInterval(t *testing.T) {
	// Step i reaches ±2^i on the x-axis.
	for i := 1; i <= 5; i++ {
		pts := polyline(Linear(i))
		minX, maxX := 0.0, 0.0
		for _, p := range pts {
			minX = math.Min(minX, p.X)
			maxX = math.Max(maxX, p.X)
			if p.Y != 0 {
				t.Fatalf("Linear(%d) left the x-axis: %v", i, p)
			}
		}
		want := math.Ldexp(1, i)
		if maxX != want || minX != -want {
			t.Errorf("Linear(%d) range [%v, %v], want ±%v", i, minX, maxX, want)
		}
	}
}

func TestLinearDuration(t *testing.T) {
	for i := 1; i <= 8; i++ {
		if got := prog.TotalDuration(Linear(i)); got != LinearDuration(i) {
			t.Errorf("Linear(%d) duration %v, want %v", i, got, LinearDuration(i))
		}
	}
}

func TestPlanarReturnsToOrigin(t *testing.T) {
	for i := 1; i <= 3; i++ {
		dx, dy := prog.Displacement(Planar(i))
		if math.Abs(dx) > 1e-7 || math.Abs(dy) > 1e-7 {
			t.Errorf("Planar(%d) displacement (%v,%v)", i, dx, dy)
		}
	}
}

func TestPlanarDuration(t *testing.T) {
	for i := 1; i <= 4; i++ {
		got := prog.TotalDuration(Planar(i))
		want := PlanarDuration(i)
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("Planar(%d) duration %v, want %v", i, got, want)
		}
		if got > PlanarDurationBound(i) {
			t.Errorf("Planar(%d) duration %v exceeds paper bound %v", i, got, PlanarDurationBound(i))
		}
	}
}

// The claim that powers Claims 3.1 and 3.7: the planar walk passes within
// CoverGap(i) of every point of the square of half-side CoverRadius(i).
func TestPlanarCoverage(t *testing.T) {
	for i := 1; i <= 3; i++ {
		pts := polyline(Planar(i))
		gap := CoverGap(i)
		radius := CoverRadius(i)
		rng := rand.New(rand.NewSource(int64(60 + i)))
		for trial := 0; trial < 150; trial++ {
			q := geom.V((2*rng.Float64()-1)*radius, (2*rng.Float64()-1)*radius)
			if d := distToPolyline(pts, q); d > gap+1e-9 {
				t.Fatalf("Planar(%d) misses %v by %v > %v", i, q, d, gap)
			}
		}
		// Corners are the worst case; check them explicitly.
		for _, q := range []geom.Vec2{
			geom.V(radius, radius), geom.V(-radius, radius),
			geom.V(radius, -radius), geom.V(-radius, -radius),
		} {
			if d := distToPolyline(pts, q); d > gap+1e-9 {
				t.Fatalf("Planar(%d) misses corner %v by %v", i, q, d)
			}
		}
	}
}

func TestPlanarVerticalExtent(t *testing.T) {
	// The sweep must reach exactly ±2^i vertically.
	for i := 1; i <= 3; i++ {
		pts := polyline(Planar(i))
		minY, maxY := 0.0, 0.0
		for _, p := range pts {
			minY = math.Min(minY, p.Y)
			maxY = math.Max(maxY, p.Y)
		}
		want := math.Ldexp(1, i)
		if math.Abs(maxY-want) > 1e-9 || math.Abs(minY+want) > 1e-9 {
			t.Errorf("Planar(%d) vertical range [%v, %v]", i, minY, maxY)
		}
	}
}

// Early termination propagates through the nested generators (the
// simulator stops pulling at rendezvous).
func TestEarlyStop(t *testing.T) {
	for _, n := range []int{1, 2, 5, 50} {
		got := prog.Take(Planar(3), n)
		if len(got) != n {
			t.Fatalf("Take(%d) returned %d", n, len(got))
		}
	}
	if got := prog.Take(Linear(4), 2); len(got) != 2 {
		t.Fatalf("linear take: %d", len(got))
	}
}

// Planar walk prefixes are consistent: taking more instructions extends,
// never alters, the earlier prefix (determinism of the generator).
func TestPlanarPrefixStability(t *testing.T) {
	short := prog.Take(Planar(2), 20)
	long := prog.Take(Planar(2), 60)
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("prefix diverged at %d: %+v vs %+v", i, short[i], long[i])
		}
	}
}

func TestRunWait(t *testing.T) {
	p := RunWait(0.7, 3, 5)
	got := prog.Collect(p)
	if len(got) != 3 {
		t.Fatalf("RunWait = %+v", got)
	}
	if got[1].Op != prog.OpWait || got[1].Amount != 5 {
		t.Errorf("wait = %+v", got[1])
	}
	dx, dy := prog.Displacement(p)
	if math.Hypot(dx, dy) > 1e-9 {
		t.Errorf("RunWait displacement %v", math.Hypot(dx, dy))
	}
	if d := prog.TotalDuration(p); d != RunWaitDuration(3, 5) {
		t.Errorf("duration %v", d)
	}
	// The far endpoint is l·(cos θ, sin θ).
	pts := polyline(p)
	far := geom.Polar(0.7).Scale(3)
	if !pts[1].ApproxEqual(far, 1e-9) {
		t.Errorf("far point %v, want %v", pts[1], far)
	}
}
