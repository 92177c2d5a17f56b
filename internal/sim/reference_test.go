package sim_test

// Frozen-reference differential for the segment loop. refRun below is
// the segment loop as it stood before the kernel hoists (DESIGN.md §14):
// it calls phys.Attributes.AbsVelocity on every move segment, takes
// geom.ClosestApproach (Hypot included) on every interval and advances
// each runner by its own interval length. The engine must reproduce
// its Results bit for bit — every float compared by its bits, traces
// included — so any divergence is a real behavior change, not rounding.
// Do not "fix" the reference: it is the specification the hoists are
// held to.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dedicated"
	"repro/internal/geom"
	"repro/internal/inst"
	"repro/internal/phys"
	"repro/internal/prog"
	"repro/internal/sim"
)

// ---- Frozen reference implementation (pre-hoist segment loop). ----

const refWaitFuseLimit = 4096

type refRunner struct {
	attrs  phys.Attributes
	cur    prog.Cursor
	radius float64

	pos     geom.Vec2
	vel     geom.Vec2
	segEnd  dd.T
	local   dd.T
	frozen  bool
	ended   bool
	srcDone bool

	pending    prog.Instr
	hasPending bool
	coalesce   bool
	maxTime    dd.T

	trace   []sim.TracePoint
	stride  int
	skipped int
	cap     int
}

func newRefRunner(spec sim.AgentSpec, slack float64, traceCap int, maxTime dd.T, coalesce bool) *refRunner {
	r := &refRunner{
		attrs:    spec.Attrs,
		cur:      prog.NewCursor(spec.Prog),
		radius:   spec.Radius*(1+slack) + 1e-12,
		pos:      spec.Attrs.Origin,
		segEnd:   dd.FromFloat(spec.Attrs.Wake),
		coalesce: coalesce,
		maxTime:  maxTime,
		stride:   1,
		cap:      traceCap,
	}
	r.record(0)
	return r
}

func (r *refRunner) stop() { r.cur.Close() }

func (r *refRunner) take() (prog.Instr, bool) {
	if r.hasPending {
		r.hasPending = false
		return r.pending, true
	}
	if r.srcDone {
		return prog.Instr{}, false
	}
	ins, ok := r.cur.Next()
	if !ok {
		r.srcDone = true
	}
	return ins, ok
}

func (r *refRunner) record(t float64) {
	if r.cap <= 0 {
		return
	}
	r.skipped++
	if r.skipped < r.stride {
		return
	}
	r.skipped = 0
	if len(r.trace) >= r.cap {
		kept := r.trace[:0]
		for i := 0; i < len(r.trace); i += 2 {
			kept = append(kept, r.trace[i])
		}
		r.trace = kept
		r.stride *= 2
	}
	r.trace = append(r.trace, sim.TracePoint{T: t, Pos: r.pos})
}

func (r *refRunner) advanceTo(now dd.T, t dd.T) {
	if r.vel == (geom.Vec2{}) {
		return
	}
	dt := t.Sub(now).Float64()
	r.pos = r.pos.Add(r.vel.Scale(dt))
}

func (r *refRunner) loadSegment(start dd.T) bool {
	for {
		ins, ok := r.take()
		if !ok {
			r.ended = true
			r.vel = geom.Vec2{}
			return false
		}
		if ins.Amount <= 0 {
			continue
		}
		r.local = r.local.AddFloat(ins.Duration())
		if ins.Op == prog.OpWait {
			r.vel = geom.Vec2{}
			if r.coalesce {
				r.fuseWaits()
			}
		} else {
			r.vel = r.attrs.AbsVelocity(ins.Theta)
		}
		r.segEnd = r.local.MulFloat(r.attrs.Tau).AddFloat(r.attrs.Wake)
		r.record(start.Float64())
		return true
	}
}

func (r *refRunner) fuseWaits() {
	for fused := 0; fused < refWaitFuseLimit; fused++ {
		if r.maxTime.LessEq(r.local.MulFloat(r.attrs.Tau).AddFloat(r.attrs.Wake)) {
			return
		}
		ins, ok := r.take()
		if !ok {
			return
		}
		if ins.Amount <= 0 {
			continue
		}
		if ins.Op != prog.OpWait {
			r.pending, r.hasPending = ins, true
			return
		}
		r.local = r.local.AddFloat(ins.Duration())
	}
}

func (r *refRunner) freeze() {
	r.frozen = true
	r.vel = geom.Vec2{}
	r.stop()
}

func refRun(a, b sim.AgentSpec, s sim.Settings) sim.Result {
	if s.MaxTime <= 0 {
		s.MaxTime = math.Inf(1)
	}
	if s.MaxSegments <= 0 {
		s.MaxSegments = math.MaxInt
	}
	maxTime := dd.FromFloat(s.MaxTime)
	ra := newRefRunner(a, s.SightSlack, s.TraceCap, maxTime, !s.NoWaitCoalesce)
	rb := newRefRunner(b, s.SightSlack, s.TraceCap, maxTime, !s.NoWaitCoalesce)
	defer ra.stop()
	defer rb.stop()

	rSmall := math.Min(ra.radius, rb.radius)
	rBig := math.Max(ra.radius, rb.radius)

	res := sim.Result{MinGap: math.Inf(1)}
	now := dd.Zero
	segments := 0

	finish := func(reason sim.StopReason, at dd.T) sim.Result {
		res.Reason = reason
		res.Met = reason == sim.ReasonMet
		if res.Met {
			res.MeetTime = at
		}
		res.EndTime = at
		res.EndA, res.EndB = ra.pos, rb.pos
		res.Segments = segments
		ra.record(at.Float64())
		rb.record(at.Float64())
		res.TraceA, res.TraceB = ra.trace, rb.trace
		return res
	}

	noteGap := func(g float64, at dd.T) {
		if g < res.MinGap {
			res.MinGap = g
			res.MinGapTime = at
		}
	}

	for {
		for _, r := range [2]*refRunner{ra, rb} {
			for !r.frozen && !r.ended && r.segEnd.LessEq(now) {
				if segments++; segments > s.MaxSegments {
					noteGap(ra.pos.Dist(rb.pos), now)
					return finish(sim.ReasonMaxSegments, now)
				}
				if !r.loadSegment(now) {
					break
				}
			}
		}

		end := maxTime
		active := false
		for _, r := range [2]*refRunner{ra, rb} {
			if !r.frozen && !r.ended {
				end = dd.Min(end, r.segEnd)
				active = true
			}
		}
		T := end.Sub(now).Float64()
		if T < 0 {
			T = 0
		}
		ma := geom.Moving{P: ra.pos, V: ra.vel}
		mb := geom.Moving{P: rb.pos, V: rb.vel}
		app := geom.ClosestApproach(ma, mb, T)
		noteGap(app.DMin, now.AddFloat(app.SMin))

		sSmall, okSmall := geom.FirstWithin(ma, mb, T, rSmall)
		if rBig > rSmall {
			if sBig, okBig := geom.FirstWithin(ma, mb, T, rBig); okBig && (!okSmall || sBig < sSmall) {
				at := now.AddFloat(sBig)
				ra.advanceTo(now, at)
				rb.advanceTo(now, at)
				if ra.radius >= rb.radius && !ra.frozen {
					ra.freeze()
				} else if !rb.frozen {
					rb.freeze()
				}
				rBig = rSmall
				now = at
				continue
			}
		}
		if okSmall {
			at := now.AddFloat(sSmall)
			ra.advanceTo(now, at)
			rb.advanceTo(now, at)
			noteGap(ra.pos.Dist(rb.pos), at)
			return finish(sim.ReasonMet, at)
		}

		if !active {
			return finish(sim.ReasonProgramsEnded, now)
		}
		ra.advanceTo(now, end)
		rb.advanceTo(now, end)
		now = end

		if maxTime.LessEq(now) {
			return finish(sim.ReasonMaxTime, now)
		}
	}
}

// ---- The differential. ----

// resultBits flattens a Result into comparable words: every float by
// its bit pattern (so -0 ≠ +0 and NaN payloads count), traces included.
func resultBits(r sim.Result) []uint64 {
	f := math.Float64bits
	met := uint64(0)
	if r.Met {
		met = 1
	}
	w := []uint64{
		met, uint64(r.Reason),
		f(r.MeetTime.Hi), f(r.MeetTime.Lo),
		f(r.MinGap), f(r.MinGapTime.Hi), f(r.MinGapTime.Lo),
		f(r.EndA.X), f(r.EndA.Y), f(r.EndB.X), f(r.EndB.Y),
		uint64(r.Segments), f(r.EndTime.Hi), f(r.EndTime.Lo),
	}
	for _, tr := range [][]sim.TracePoint{r.TraceA, r.TraceB} {
		w = append(w, uint64(len(tr)))
		for _, p := range tr {
			w = append(w, f(p.T), f(p.Pos.X), f(p.Pos.Y))
		}
	}
	return w
}

// refCase is one simulation run by both the engine and refRun; mk
// builds a fresh program per agent per run.
type refCase struct {
	name   string
	a, b   phys.Attributes
	ra, rb float64
	mk     func() prog.Program
	set    sim.Settings
}

func (c refCase) specs() (sim.AgentSpec, sim.AgentSpec) {
	return sim.AgentSpec{Attrs: c.a, Prog: c.mk(), Radius: c.ra},
		sim.AgentSpec{Attrs: c.b, Prog: c.mk(), Radius: c.rb}
}

// refCases covers every generator class under AURV and under the
// dedicated algorithm (feasible draws only), each in both wait
// accounting modes, plus distinct radii in both orders, recorded
// traces, and stops on MaxSegments, MaxTime and program end.
func refCases() []refCase {
	aurv := func() prog.Program { return core.Program(core.Compact(), nil) }
	base := sim.DefaultSettings()
	base.MaxSegments = 200_000
	var cs []refCase
	add := func(name string, in inst.Instance, mk func() prog.Program, set sim.Settings) {
		cs = append(cs, refCase{name, in.AgentA(), in.AgentB(), in.R, in.R, mk, set})
	}
	g := inst.NewGen(11)
	for _, cl := range inst.Classes() {
		for k, in := range g.DrawN(cl, 2) {
			for _, noCoalesce := range []bool{false, true} {
				set := base
				set.NoWaitCoalesce = noCoalesce
				tag := fmt.Sprintf("%v/%d/noCoalesce=%v", cl, k, noCoalesce)
				add("aurv/"+tag, in, aurv, set)
				if _, ok := dedicated.ForInstance(in, core.Compact()); ok {
					in := in
					add("dedicated/"+tag, in, func() prog.Program {
						p, _ := dedicated.ForInstance(in, core.Compact())
						return p
					}, set)
				}
			}
		}
	}

	// Section 5: distinct radii, the far-sighted agent either A or B.
	for k, in := range g.DrawN(inst.ClassRotatedDelayed, 3) {
		for _, big := range []bool{false, true} {
			c := refCase{fmt.Sprintf("radii/%d/bigA=%v", k, big), in.AgentA(), in.AgentB(), in.R, in.R * 0.4, aurv, base}
			if !big {
				c.ra, c.rb = c.rb, c.ra
			}
			cs = append(cs, c)
		}
	}

	// Recorded traces, small enough that stride doubling kicks in.
	for k, in := range g.DrawN(inst.ClassClockDrift, 2) {
		set := base
		set.TraceCap = 48
		add(fmt.Sprintf("trace/%d", k), in, aurv, set)
	}

	// MaxTime stops: an infeasible instance never meets, so the clock
	// bound ends it before the segment budget does.
	for k, in := range g.DrawN(inst.ClassInfeasibleShift, 2) {
		set := base
		set.MaxTime = 900
		set.TraceCap = 16
		add(fmt.Sprintf("maxtime/%d", k), in, aurv, set)
	}

	// Program end: finite walks over 15 headings in three families a
	// micro-radian apart, each heading used twice within six moves, so the
	// velocity cache sees hits, evictions and nearly colliding angles.
	walk := func() prog.Program {
		var list []prog.Instr
		for i := 0; i < 60; i++ {
			theta := float64(i%3)*0.7 + float64(i/6%5)*1e-6
			list = append(list, prog.Move(theta, 1+float64(i%3)), prog.Wait(0.5))
		}
		return prog.Instrs(list...)
	}
	for k, in := range g.DrawN(inst.ClassSpeedOnly, 2) {
		in.X, in.Y = in.X+500, in.Y+500 // too far apart to meet
		add(fmt.Sprintf("ended/%d", k), in, walk, base)
	}
	return cs
}

// TestEngineMatchesFrozenReference: every case gives a bit-identical
// Result from the engine and from the frozen pre-hoist loop, and the
// cases between them reach every stop reason.
func TestEngineMatchesFrozenReference(t *testing.T) {
	reasons := map[sim.StopReason]int{}
	for _, c := range refCases() {
		a, b := c.specs()
		got := sim.Run(a, b, c.set)
		a, b = c.specs()
		want := refRun(a, b, c.set)
		if !slices.Equal(resultBits(got), resultBits(want)) {
			t.Errorf("%s: engine and frozen reference differ\nengine:    %+v\nreference: %+v", c.name, got, want)
		}
		reasons[want.Reason]++
	}
	for _, r := range []sim.StopReason{sim.ReasonMet, sim.ReasonMaxSegments, sim.ReasonMaxTime, sim.ReasonProgramsEnded} {
		if reasons[r] == 0 {
			t.Errorf("no case stopped with %v; coverage lost (seen %v)", r, reasons)
		}
	}
}
