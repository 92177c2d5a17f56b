package core

import (
	"math"

	"repro/internal/cgkk"
	"repro/internal/inst"
	"repro/internal/latecomers"
	"repro/internal/prog"
	"repro/internal/walk"
)

// moveTimeWithin returns the move-time (excluding waits) contained in the
// first T local time units of a program — the exact duration of the
// backtrack over that prefix.
func moveTimeWithin(p prog.Program, T float64) float64 {
	elapsed, moves := 0.0, 0.0
	for ins := range prog.All(p) {
		d := ins.Duration()
		take := d
		if elapsed+d > T {
			take = T - elapsed
		}
		if ins.Op == prog.OpMove {
			moves += take
		}
		elapsed += d
		if elapsed >= T {
			break
		}
	}
	return moves
}

// Block durations in local time units.

// Block1Duration returns the local duration of Block1(i).
func Block1Duration(i int) float64 {
	return math.Ldexp(1, i+1) * walk.PlanarDuration(i)
}

// Block2Duration returns the local duration of Block2(i).
func Block2Duration(i int) float64 {
	span := math.Ldexp(1, i)
	return 2*span + moveTimeWithin(latecomers.Program(), span)
}

// Block3Duration returns the local duration of Block3(i, s).
func Block3Duration(i int, s Schedule) float64 {
	return math.Exp2(s.Type3WaitExp(i)) + walk.PlanarDuration(i)
}

// Block4Duration returns the local duration of Block4(i, s).
func Block4Duration(i int, s Schedule) float64 {
	span := math.Ldexp(1, i)
	sliced := span + math.Ldexp(1, 2*i)*span // content + 2^{2i} pauses of 2^i
	return sliced + moveTimeWithin(cgkk.Program(s.CGKK), span)
}

// PhaseDuration returns the local duration of a full phase.
func PhaseDuration(i int, s Schedule) float64 {
	return Block1Duration(i) + Block2Duration(i) + Block3Duration(i, s) + Block4Duration(i, s)
}

// CumulativeDuration returns the local duration of phases 1..i.
func CumulativeDuration(i int, s Schedule) float64 {
	sum := 0.0
	for j := 1; j <= i; j++ {
		sum += PhaseDuration(j, s)
	}
	return sum
}

// Prediction is the output of PredictPhase: the phase by whose end
// rendezvous is guaranteed, with a conservative absolute-time bound.
type Prediction struct {
	Type      inst.Type
	Phase     int
	TimeBound float64 // absolute time bound (conservative)
}

// maxPredictPhase caps the predictor loops; phases beyond ~25 are not
// simulable anyway.
const maxPredictPhase = 25

// PredictPhase derives, per instance and schedule, the phase of
// Algorithm 1 by whose end rendezvous is guaranteed. It returns false for
// instances outside Theorem 3.2 (TypeNone) and for instances whose
// guaranteed phase exceeds the predictor cap.
//
// For types 2–4 the predictions instantiate the paper's Lemmas 3.3–3.5
// with this implementation's exact block durations. For type 1 the paper
// bound (σ + ω of Lemma 3.2) is returned; it is very conservative — see
// Type1PaperPhase — and simulated runs meet much earlier.
func PredictPhase(in inst.Instance, s Schedule) (Prediction, bool) {
	switch in.TypeOf() {
	case inst.Type1:
		return predictType1(in, s)
	case inst.Type2:
		return predictType2(in, s)
	case inst.Type3:
		return predictType3(in, s)
	case inst.Type4:
		return predictType4(in, s)
	}
	return Prediction{}, false
}

// Type1PaperPhase returns σ, ω and the phase σ+ω of Lemma 3.2.
func Type1PaperPhase(in inst.Instance) (sigma, omega int) {
	gap := in.ProjGap()
	e := in.T - gap + in.R
	minRE := math.Min(in.R, e)
	d := in.Dist()
	arg := in.T + in.R + e + d + 8/minRE +
		math.Pi/math.Asin(minRE/(16*(in.T+in.R+e+1)))
	sigma = int(math.Ceil(math.Log2(arg)))
	omega = 1
	if q := gap - in.R + e/2; q > 0 {
		omega = int(math.Ceil(math.Log2(math.Pi / math.Acos(q/in.T))))
		if omega < 1 {
			omega = 1
		}
	}
	return sigma, omega
}

func predictType1(in inst.Instance, s Schedule) (Prediction, bool) {
	sigma, omega := Type1PaperPhase(in)
	phase := sigma + omega
	if phase > maxPredictPhase {
		return Prediction{}, false
	}
	// Meeting happens by the time agent B (waking t late) finishes the
	// phase's block 1.
	bound := in.T + CumulativeDuration(phase-1, s) + Block1Duration(phase)
	return Prediction{inst.Type1, phase, bound}, true
}

// predictType2 instantiates Lemma 3.3: phase i = ⌈log₂(t + Δ)⌉ where Δ
// bounds the Latecomers rendezvous time for the instance.
func predictType2(in inst.Instance, s Schedule) (Prediction, bool) {
	k, _, ok := latecomers.PredictPhase(in)
	if !ok {
		return Prediction{}, false
	}
	delta := 0.0
	for j := 1; j <= k; j++ {
		delta += latecomers.PhaseDuration(j)
	}
	phase := int(math.Ceil(math.Log2(in.T + delta)))
	if phase < 1 {
		phase = 1
	}
	if phase > maxPredictPhase {
		return Prediction{}, false
	}
	bound := in.T + CumulativeDuration(phase-1, s) + Block1Duration(phase) + Block2Duration(phase)
	return Prediction{inst.Type2, phase, bound}, true
}

// predictType3 instantiates Lemma 3.4 with the exact cumulative durations
// of this implementation: the faster-clock agent X must start its phase-i
// planar walk after the slower agent Y entered its phase-i block-3 wait,
// and finish before that wait ends, with the walk covering Y's start.
func predictType3(in inst.Instance, s Schedule) (Prediction, bool) {
	tauMin, tauMax := in.Tau, 1.0
	uX := in.Tau * in.V // unit of the faster agent if it is B
	if tauMin > tauMax {
		tauMin, tauMax = tauMax, tauMin
		uX = 1.0
	}
	d := in.Dist()
	cum := 0.0 // local duration of phases 1..i-1
	for i := 1; i <= maxPredictPhase; i++ {
		w := math.Exp2(s.Type3WaitExp(i))
		cWaitEnd := cum + Block1Duration(i) + Block2Duration(i) + w
		D := walk.PlanarDuration(i)
		startOK := cWaitEnd*tauMin >= in.T+(cWaitEnd-w)*tauMax
		finishOK := in.T+(cWaitEnd+D)*tauMin <= cWaitEnd*tauMax
		reach := walk.CoverRadius(i)*uX >= d
		fine := walk.CoverGap(i)*uX <= in.R
		if startOK && finishOK && reach && fine {
			bound := in.T + (cWaitEnd+D)*tauMax
			return Prediction{inst.Type3, i, bound}, true
		}
		cum += PhaseDuration(i, s)
		if math.IsInf(cum, 0) {
			break
		}
	}
	return Prediction{}, false
}

// predictType4 instantiates Lemma 3.5: phase i = ⌈log₂(t + Δ + 4(v+1)/r)⌉
// where Δ bounds the CGKK rendezvous time on h(K) — the instance with
// radius halved and delay zeroed.
func predictType4(in inst.Instance, s Schedule) (Prediction, bool) {
	h := in
	h.R /= 2
	h.T = 0
	delta, ok := cgkk.MeetTimeBound(h, s.CGKK)
	if !ok {
		return Prediction{}, false
	}
	phase := int(math.Ceil(math.Log2(in.T + delta + 4*(in.V+1)/in.R)))
	if phase < 1 {
		phase = 1
	}
	if phase > maxPredictPhase {
		return Prediction{}, false
	}
	bound := in.T + CumulativeDuration(phase, s)
	return Prediction{inst.Type4, phase, bound}, true
}
