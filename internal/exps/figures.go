package exps

import (
	"math"

	"repro/internal/batch"
	"repro/internal/dedicated"
	"repro/internal/geom"
	"repro/internal/inst"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/svg"
)

// Figures regenerates the paper's five figures as SVG documents, keyed
// "fig1" … "fig5". Each is drawn from computed geometry or actually
// simulated trajectories, not hand-placed artwork.
func Figures() map[string]string { return FiguresDist(Budgets{}) }

// FiguresDist regenerates the figures, fanning the simulated runs
// behind Fig4 and Fig5 through the batch pool of b.Workers (0 selects
// GOMAXPROCS) and, when b.Fleet is set, the worker fleet: Fig4's
// wire-formed AURV run may execute in a worker process — its recorded
// trajectory crosses the codec bit-exactly — while Fig5's closure-built
// dedicated algorithm stays in-process. Output is identical for every
// pool size and fleet.
func FiguresDist(b Budgets) map[string]string {
	jobs := []batch.Job{fig4Job(), fig5Job()}
	res, _ := b.Fleet.RunOrFallback(jobs, b.Workers)
	return map[string]string{
		"fig1": Fig1(),
		"fig2": Fig2(),
		"fig3": Fig3(),
		"fig4": fig4Render(res[0]),
		"fig5": fig5Render(res[1]),
	}
}

// axes draws a small coordinate frame at p: x-axis along angle a, y-axis
// rotated by +90° (χ=1) or -90° (χ=-1).
func axes(c *svg.Canvas, p geom.Vec2, a float64, chi int, size float64, color, label string) {
	x := geom.Polar(a).Scale(size)
	y := x.Perp()
	if chi < 0 {
		y = y.Neg()
	}
	st := svg.Style{Stroke: color, Width: 1.6}
	c.Arrow(p, p.Add(x), st)
	c.Arrow(p, p.Add(y), st)
	c.Text(p.Add(x).Add(geom.V(0.06, 0.06)), "x", 13, color)
	c.Text(p.Add(y).Add(geom.V(0.06, 0.06)), "y", 13, color)
	if label != "" {
		c.Dot(p, 3.5, color)
		c.Text(p.Add(geom.V(-0.16, -0.2)), label, 15, color)
	}
}

// Fig1 — the geometric setting of an instance with different chiralities:
// the two private frames, the bisectrix D of the x-axes, and the
// canonical line L (Definition 2.1).
func Fig1() string {
	in := inst.Instance{R: 0.4, X: 2.2, Y: 1.0, Phi: 1.9, Tau: 1, V: 1, T: 0.8, Chi: -1}
	c := svg.New(640, 480, -1.6, -1.2, 3.8, 2.8)
	a := geom.V(0, 0)
	b := in.B0()
	axes(c, a, 0, 1, 0.9, "black", "A")
	axes(c, b, in.Phi, in.Chi, 0.9, "black", "B")
	// Bisectrix D: through A's origin at angle φ/2 (dashed).
	c.InfiniteLine(geom.LineAtAngle(a, in.Phi/2), svg.Style{Stroke: "#666", Dash: "6,5", Width: 1.2})
	c.Text(geom.V(-1.3, -0.9), "D", 15, "#666")
	// Canonical line L (solid).
	L := in.CanonicalLine()
	c.InfiniteLine(L, svg.Style{Stroke: "black", Width: 2})
	c.Text(L.Point.Add(L.Dir.Scale(1.6)).Add(geom.V(0.08, -0.22)), "L", 16, "black")
	return c.String()
}

// Fig2 — the three coordinate systems of Lemma 3.2's proof: Γ (agent A),
// Σ (rotated so its x-axis is parallel to L), and Rot_A(jπ/2^i) forming
// angle α with Σ.
func Fig2() string {
	in := inst.Instance{R: 0.5, X: 2.4, Y: 0.8, Phi: 2.4, Tau: 1, V: 1, T: 1.0, Chi: -1}
	c := svg.New(640, 480, -1.8, -1.5, 4.0, 2.6)
	a := geom.V(0, 0)
	b := in.B0()
	L := in.CanonicalLine()
	c.InfiniteLine(L, svg.Style{Stroke: "black", Width: 2})
	c.Text(L.Point.Add(L.Dir.Scale(1.8)).Add(geom.V(0.06, -0.2)), "L", 16, "black")
	// Projections.
	pa, pb := L.Project(a), L.Project(b)
	c.Dot(pa, 3, "#444")
	c.Dot(pb, 3, "#444")
	c.Text(pa.Add(geom.V(0.05, -0.28)), "projA", 12, "#444")
	c.Text(pb.Add(geom.V(0.05, -0.28)), "projB", 12, "#444")
	c.Line(a, pa, svg.Style{Stroke: "#bbb", Dash: "3,3", Width: 1})
	c.Line(b, pb, svg.Style{Stroke: "#bbb", Dash: "3,3", Width: 1})
	// Γ: A's frame (solid black). Σ: rotated to match L (dashed). Rot_A at
	// angle α from Σ (dotted → rendered dash "2,3").
	axes(c, a, 0, 1, 0.85, "black", "A")
	sigma := L.Inclination()
	alpha := math.Pi / 16
	xs := geom.Polar(sigma).Scale(1.1)
	c.Arrow(a, xs, svg.Style{Stroke: "#1660c8", Width: 1.4, Dash: "7,4"})
	c.Text(xs.Add(geom.V(0.06, 0)), "x (Σ)", 12, "#1660c8")
	xr := geom.Polar(sigma + alpha).Scale(1.1)
	c.Arrow(a, xr, svg.Style{Stroke: "#c22727", Width: 1.4, Dash: "2,3"})
	c.Text(xr.Add(geom.V(0.06, 0.1)), "x Rot(jπ/2^i)", 12, "#c22727")
	axes(c, b, in.Phi, in.Chi, 0.85, "black", "B")
	return c.String()
}

// Fig3 — the geometry of Claim 3.1: the angle α between the y-axis of
// Rot_A(jπ/2^i) and the perpendicular to L, and the intersection o of
// that y-axis with L.
func Fig3() string {
	in := inst.Instance{R: 0.5, X: 2.0, Y: 1.2, Phi: 1.2, Tau: 1, V: 1, T: 1.0, Chi: -1}
	c := svg.New(640, 480, -1.4, -1.4, 3.4, 2.6)
	a := geom.V(0, 0)
	b := in.B0()
	L := in.CanonicalLine()
	c.InfiniteLine(L, svg.Style{Stroke: "black", Width: 2})
	c.Text(L.Point.Add(L.Dir.Scale(1.5)).Add(geom.V(0.05, -0.2)), "L", 16, "black")
	pa, pb := L.Project(a), L.Project(b)
	c.Dot(a, 3.5, "black")
	c.Text(a.Add(geom.V(-0.25, -0.1)), "A", 14, "black")
	c.Dot(b, 3.5, "black")
	c.Text(b.Add(geom.V(0.08, 0.05)), "B", 14, "black")
	c.Dot(pa, 3, "#444")
	c.Text(pa.Add(geom.V(0.04, -0.28)), "projA", 12, "#444")
	c.Dot(pb, 3, "#444")
	c.Text(pb.Add(geom.V(0.04, -0.28)), "projB", 12, "#444")
	c.Line(a, pa, svg.Style{Stroke: "#999", Dash: "3,3", Width: 1})
	// The Rot_A system's y-axis, tilted α from the perpendicular to L,
	// meeting L at o.
	alpha := math.Pi / 14
	perp := L.Inclination() + math.Pi/2
	ydir := geom.Polar(perp + alpha)
	// Intersection o of the line a + s·(-ydir) with L.
	// Solve: signed distance of a to L equals s·cos(angle between -ydir
	// and the normal).
	h := L.SignedDistTo(a)
	s := h / ydir.Dot(geom.Polar(perp))
	o := a.Sub(ydir.Scale(s))
	c.Arrow(a, a.Add(ydir.Scale(1.0)), svg.Style{Stroke: "#c22727", Width: 1.5})
	c.Text(a.Add(ydir.Scale(1.0)).Add(geom.V(0.05, 0.05)), "y", 13, "#c22727")
	c.Line(a, o, svg.Style{Stroke: "#c22727", Width: 1.2, Dash: "5,4"})
	c.Dot(o, 3.2, "#c22727")
	c.Text(o.Add(geom.V(0.06, 0.12)), "o", 14, "#c22727")
	c.Text(a.Add(geom.V(0.12, -0.42)), "α", 14, "#c22727")
	return c.String()
}

// tracedJob builds an AURV batch job on the instance with trajectory
// recording enabled. The job is wire-formed: trace recording is part of
// the settings, so a worker process records (and ships back) exactly
// the trajectory an in-process run would have.
func tracedJob(in inst.Instance, maxSeg, cap int) batch.Job {
	set := settings(maxSeg)
	set.TraceCap = cap
	return aurvWireJob(in, set)
}

// fig4Instance is the simulated type-1 instance behind Fig4.
func fig4Instance() inst.Instance {
	return inst.Instance{R: 0.9, X: 1.1, Y: 0, Phi: 0, Tau: 1, V: 1, T: 1.0, Chi: -1}
}

// fig4Job builds Fig4's simulation run.
func fig4Job() batch.Job { return tracedJob(fig4Instance(), 200_000_000, 4096) }

// Fig4 — Lemma 3.2's endgame on an actually simulated type-1 instance:
// the mirrored trajectories on both sides of the canonical line, the
// meeting point, and the projections.
func Fig4() string {
	j := fig4Job()
	return fig4Render(sim.Run(j.A, j.B, j.Settings))
}

// fig4Render draws the figure from the completed simulation.
func fig4Render(res sim.Result) string {
	in := fig4Instance()
	L := in.CanonicalLine()
	// Viewport around the action.
	minX, maxX := -2.5, 3.5
	minY, maxY := -2.5, 2.5
	c := svg.New(720, 600, minX, minY, maxX, maxY)
	c.InfiniteLine(L, svg.Style{Stroke: "black", Width: 2})
	c.Text(geom.V(maxX-0.5, L.Project(geom.V(maxX-0.5, 0)).Y+0.15), "L", 16, "black")
	plot := func(tr []sim.TracePoint, color string) {
		pts := make([]geom.Vec2, len(tr))
		for i, p := range tr {
			pts[i] = p.Pos
		}
		c.Polyline(pts, svg.Style{Stroke: color, Width: 1})
	}
	plot(res.TraceA, "#1660c8")
	plot(res.TraceB, "#c22727")
	c.Dot(geom.V(0, 0), 4, "#1660c8")
	c.Text(geom.V(-0.3, -0.25), "A", 14, "#1660c8")
	c.Dot(in.B0(), 4, "#c22727")
	c.Text(in.B0().Add(geom.V(0.08, 0.08)), "B", 14, "#c22727")
	if res.Met {
		c.Circle(res.EndA, in.R, svg.Style{Stroke: "#2a8f2a", Width: 1.2, Dash: "4,3"})
		c.Dot(res.EndA, 4, "#2a8f2a")
		c.Dot(res.EndB, 4, "#2a8f2a")
		c.Text(res.EndA.Add(geom.V(0.1, -0.3)), "rendezvous", 13, "#2a8f2a")
	}
	return c.String()
}

// fig5Instance is the S2 boundary instance behind Fig5.
func fig5Instance() inst.Instance {
	in := inst.Instance{R: 0.5, X: 2, Y: 1, Phi: 0.8, Tau: 1, V: 1, Chi: -1}
	in.T = in.ProjGap() - in.R
	return in
}

// fig5Job builds Fig5's simulation run: the dedicated S2 algorithm with
// trajectory recording.
func fig5Job() batch.Job {
	in := fig5Instance()
	set := settings(100_000)
	set.TraceCap = 1024
	mk := func() prog.Program { return dedicated.S2Program(in) }
	return batch.Job{
		A:        sim.AgentSpec{Attrs: in.AgentA(), Prog: mk(), Radius: in.R},
		B:        sim.AgentSpec{Attrs: in.AgentB(), Prog: mk(), Radius: in.R},
		Settings: set,
	}
}

// Fig5 — the two cases of Lemma 3.9 on actually simulated S2 boundary
// runs: the agents walk to their projections on L and slide along it,
// meeting at distance exactly r.
func Fig5() string {
	j := fig5Job()
	return fig5Render(sim.Run(j.A, j.B, j.Settings))
}

// fig5Render draws the figure from the completed simulation.
func fig5Render(res sim.Result) string {
	in := fig5Instance()
	L := in.CanonicalLine()
	c := svg.New(720, 560, -1.2, -1.0, 3.4, 2.6)
	c.InfiniteLine(L, svg.Style{Stroke: "black", Width: 2})
	c.Text(geom.V(3.0, L.Project(geom.V(3.0, 0)).Y+0.18), "L", 16, "black")
	plot := func(tr []sim.TracePoint, color string) {
		pts := make([]geom.Vec2, len(tr))
		for i, p := range tr {
			pts[i] = p.Pos
		}
		c.Polyline(pts, svg.Style{Stroke: color, Width: 1.6})
	}
	plot(res.TraceA, "#1660c8")
	plot(res.TraceB, "#c22727")
	c.Dot(geom.V(0, 0), 4, "#1660c8")
	c.Text(geom.V(-0.25, -0.2), "A", 14, "#1660c8")
	c.Dot(in.B0(), 4, "#c22727")
	c.Text(in.B0().Add(geom.V(0.08, 0.08)), "B", 14, "#c22727")
	pa, pb := L.Project(geom.V(0, 0)), L.Project(in.B0())
	c.Dot(pa, 3, "#444")
	c.Text(pa.Add(geom.V(0.05, -0.3)), "projA", 12, "#444")
	c.Dot(pb, 3, "#444")
	c.Text(pb.Add(geom.V(0.05, -0.3)), "projB", 12, "#444")
	if res.Met {
		c.Circle(res.EndA, in.R, svg.Style{Stroke: "#2a8f2a", Width: 1.2, Dash: "4,3"})
		c.Dot(res.EndA, 4, "#2a8f2a")
		c.Dot(res.EndB, 4, "#2a8f2a")
		c.Text(res.EndA.Add(geom.V(0.1, 0.25)), "gap = r", 13, "#2a8f2a")
	}
	return c.String()
}
