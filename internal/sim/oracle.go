package sim

import (
	"math"

	"repro/internal/dd"
	"repro/internal/geom"
	"repro/internal/phys"
	"repro/internal/prog"
)

// RunStepped is a brute-force reference simulator used as a testing
// oracle for Run: it advances both agents with a fixed time step and
// checks the gap at every step. It is exponentially slower than the
// event-driven engine and misses razor-thin tangencies, but its utter
// simplicity makes it trustworthy — the property tests cross-validate
// Run against it on random programs.
//
// dt is the time step; maxTime bounds the walk. The returned result only
// fills Met, MeetTime, MinGap, EndA, EndB.
func RunStepped(a, b AgentSpec, dt, maxTime float64) Result {
	pa := newSteppedAgent(a)
	pb := newSteppedAgent(b)
	res := Result{MinGap: math.Inf(1)}
	rEff := math.Min(a.Radius, b.Radius)
	for t := 0.0; t <= maxTime; t += dt {
		ga := pa.at(t)
		gb := pb.at(t)
		gap := ga.Dist(gb)
		if gap < res.MinGap {
			res.MinGap = gap
		}
		if gap <= rEff {
			res.Met = true
			res.MeetTime = dd.FromFloat(t)
			res.EndA, res.EndB = ga, gb
			return res
		}
	}
	res.EndA, res.EndB = pa.at(maxTime), pb.at(maxTime)
	return res
}

// steppedAgent pre-materializes an agent's absolute-time polyline.
type steppedAgent struct {
	times []float64   // absolute segment end times
	pts   []geom.Vec2 // positions at those times (pts[0] at time 0)
}

func newSteppedAgent(spec AgentSpec) *steppedAgent {
	s := &steppedAgent{times: []float64{spec.Attrs.Wake}, pts: []geom.Vec2{spec.Attrs.Origin, spec.Attrs.Origin}}
	t := spec.Attrs.Wake
	pos := spec.Attrs.Origin
	for ins := range prog.All(spec.Prog) {
		dur := durAbs(spec.Attrs, ins)
		t += dur
		if ins.Op == prog.OpMove {
			pos = pos.Add(spec.Attrs.DirAbs(ins.Theta).Scale(ins.Amount * spec.Attrs.Unit()))
		}
		s.times = append(s.times, t)
		s.pts = append(s.pts, pos)
		if len(s.times) >= 1_000_000 { // cap: oracle programs are finite
			break
		}
	}
	return s
}

func durAbs(a phys.Attributes, ins prog.Instr) float64 {
	if ins.Op == prog.OpWait {
		return a.WaitDuration(ins.Amount)
	}
	return a.MoveDuration(ins.Amount)
}

// at returns the agent's position at absolute time t (stationary before
// wake and after the program ends).
func (s *steppedAgent) at(t float64) geom.Vec2 {
	if t <= s.times[0] {
		return s.pts[0]
	}
	// Binary search the segment containing t.
	lo, hi := 0, len(s.times)-1
	if t >= s.times[hi] {
		return s.pts[hi+1]
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if s.times[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	t0, t1 := s.times[lo], s.times[hi]
	p0, p1 := s.pts[lo+1], s.pts[hi+1]
	if t1 == t0 {
		return p1
	}
	frac := (t - t0) / (t1 - t0)
	return p0.Lerp(p1, frac)
}
