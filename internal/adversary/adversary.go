// Package adversary implements the impossibility construction of
// Theorem 4.1: no single algorithm achieves rendezvous for every S2
// boundary instance (synchronous, χ = −1, t = dist(proj_A, proj_B) − r).
//
// The proof's engine is Claim 4.1: before rendezvous on such an instance,
// the earlier agent must traverse a non-null segment of inclination φ/2 —
// the inclination of the canonical line. A deterministic algorithm's solo
// trajectory is a countable polyline, so it realizes only countably many
// inclinations, while φ ranges over a continuum: any inclination the
// algorithm misses yields a defeating instance.
//
// Constructively, for a *finite* prefix of the solo trajectory we can
// exhibit the defeating instance: collect the inclinations of the first n
// segments, pick the midpoint of the widest uncovered arc of [0, π), and
// build the S2 instance whose canonical line has that inclination. No
// rendezvous can occur while the algorithm is still inside the inspected
// prefix.
package adversary

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/inst"
	"repro/internal/prog"
)

// Inclinations returns the distinct inclinations (mod π, sorted) of the
// move segments among the first n instructions of a program's solo
// execution. The prefix is drained through the program's cursor, so
// inspecting even long prefixes of Algorithm 1 stays cheap.
func Inclinations(p prog.Program, n int) []float64 {
	seen := make(map[float64]bool)
	cur := p()
	defer cur.Close()
	for count := 0; count < n; count++ {
		ins, ok := cur.Next()
		if !ok {
			break
		}
		if ins.Op == prog.OpMove && ins.Amount > 0 {
			inc := math.Mod(ins.Theta, math.Pi)
			if inc < 0 {
				inc += math.Pi
			}
			seen[inc] = true
		}
	}
	out := make([]float64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// WidestGapMidpoint returns the midpoint of the widest arc of [0, π) not
// containing any of the given (sorted) inclinations, together with the
// arc's half-width. With no inclinations at all it returns (π/2, π/2).
func WidestGapMidpoint(incs []float64) (mid, halfWidth float64) {
	if len(incs) == 0 {
		return math.Pi / 2, math.Pi / 2
	}
	bestGap, bestLo := -1.0, 0.0
	for i := 0; i < len(incs); i++ {
		lo := incs[i]
		hi := incs[(i+1)%len(incs)]
		if i == len(incs)-1 {
			hi += math.Pi // wrap around
		}
		if g := hi - lo; g > bestGap {
			bestGap, bestLo = g, lo
		}
	}
	m := math.Mod(bestLo+bestGap/2, math.Pi)
	return m, bestGap / 2
}

// Defeat holds a defeating instance and the guarantee horizon.
type Defeat struct {
	Instance inst.Instance
	// Inclination is the canonical-line inclination φ/2 the algorithm's
	// prefix never traverses.
	Inclination float64
	// Margin is the angular distance from Inclination to the nearest
	// inclination the prefix does traverse.
	Margin float64
	// PrefixInstrs is the number of solo instructions inspected: no
	// rendezvous can occur while the earlier agent is still inside this
	// prefix (Claim 4.1).
	PrefixInstrs int
}

// DefeatingInstance constructs an S2 boundary instance that the given
// algorithm program cannot solve within its first n solo instructions.
// The instance has radius r and initial distance d > r along the missed
// canonical direction.
func DefeatingInstance(p prog.Program, n int, r, d float64) Defeat {
	incs := Inclinations(p, n)
	mid, half := WidestGapMidpoint(incs)
	phi := math.Mod(2*mid, 2*math.Pi)
	b0 := geom.Polar(mid).Scale(d) // along the canonical line direction
	in := inst.Instance{
		R: r, X: b0.X, Y: b0.Y, Phi: phi, Tau: 1, V: 1, Chi: -1,
	}
	in.T = in.ProjGap() - r
	return Defeat{
		Instance:     in,
		Inclination:  mid,
		Margin:       half,
		PrefixInstrs: n,
	}
}
