// Package walk implements the search-walk building blocks of the paper:
// LinearCowWalk (Algorithm 3), PlanarCowWalk (Algorithm 2), and the
// run-and-wait primitive used by the Latecomers substrate.
//
// All walks are expressed in the executing agent's private units and
// start and end at the agent's current position — the invariant Lemma 3.1
// of the paper relies on.
package walk

import (
	"math"

	"repro/internal/prog"
)

// linearCursor generates LinearCowWalk(i) procedurally: step j emits
// go(E, 2^j), go(W, 2^{j+1}), go(E, 2^j). It is embedded by value in
// planarCursor so the millions of linear sub-walks of a planar search
// cost no allocation at all.
type linearCursor struct {
	i, j, k int     // j: current step (1-based), k: 0..2 within the step
	d       float64 // 2^j, maintained by doubling (exact)
}

func (c *linearCursor) reset(i int) { c.i, c.j, c.k, c.d = i, 1, 0, 2 }

func (c *linearCursor) Next() (prog.Instr, bool) {
	if c.j > c.i {
		return prog.Instr{}, false
	}
	var ins prog.Instr
	switch c.k {
	case 0:
		ins = prog.Move(prog.East, c.d)
	case 1:
		ins = prog.Move(prog.West, 2*c.d)
	case 2:
		ins = prog.Move(prog.East, c.d)
	}
	if c.k++; c.k == 3 {
		c.k, c.j, c.d = 0, c.j+1, c.d*2
	}
	return ins, true
}

func (c *linearCursor) Close() { c.j = c.i + 1 }

// Linear returns LinearCowWalk(i) (Algorithm 3): the first i steps of the
// classic cow-path linear search along the local x-axis. Step j visits
// all points of the line at distance ≤ 2^j on both sides and returns:
//
//	for j = 1..i:  go(E, 2^j); go(W, 2^(j+1)); go(E, 2^j)
func Linear(i int) prog.Program {
	return func() prog.Cursor {
		c := &linearCursor{}
		c.reset(i)
		return c
	}
}

// LinearDuration returns the local-time duration of Linear(i):
// Σ_{j=1..i} 4·2^j = 2^{i+3} − 8.
func LinearDuration(i int) float64 {
	return math.Ldexp(1, i+3) - 8
}

// Planar returns PlanarCowWalk(i) (Algorithm 2): a series of parallel
// linear searches covering the square [−2^i, 2^i]² of the local system
// with line spacing 2^{−i}:
//
//	LinearCowWalk(i)
//	for j = 1 to 2:
//	    repeat 2^{2i} times:
//	        go(N or S, 1/2^i); LinearCowWalk(i)
//	    go(S or N, 2^i)
//
// The walk passes within 2^{−(i+1)} of every point of the square and
// returns to its start.
func Planar(i int) prog.Program {
	return func() prog.Cursor { return newPlanarCursor(i) }
}

// NewPlanar returns PlanarCowWalk(i) as a bare single-use cursor — the
// allocation-lean spelling for the per-phase (and, in block 1,
// per-epoch) program builders of Algorithm 1.
func NewPlanar(i int) prog.Cursor { return newPlanarCursor(i) }

// planarCursor generates PlanarCowWalk(i) as a flat state machine: the
// leading linear walk, then two sweeps of reps × (step move + linear
// walk) each closed by the return move. One allocation per walk.
type planarCursor struct {
	i          int
	step, span float64
	reps       int
	lin        linearCursor
	stage      int // 0: leading linear, 1: next step move, 2: in-sweep linear, 3: return move, 4: done
	j, k       int // j: sweep 1 or 2, k: reps consumed in the sweep
}

func newPlanarCursor(i int) *planarCursor {
	c := &planarCursor{
		i:    i,
		step: math.Ldexp(1, -i),
		span: math.Ldexp(1, i),
		reps: 1 << uint(2*i),
	}
	c.lin.reset(i)
	return c
}

func (c *planarCursor) Next() (prog.Instr, bool) {
	for {
		switch c.stage {
		case 0:
			if ins, ok := c.lin.Next(); ok {
				return ins, true
			}
			c.stage, c.j, c.k = 1, 1, 0
		case 1:
			if c.k < c.reps {
				c.k++
				c.lin.reset(c.i)
				c.stage = 2
				if c.j == 1 {
					return prog.Move(prog.North, c.step), true
				}
				return prog.Move(prog.South, c.step), true
			}
			c.stage = 3
		case 2:
			if ins, ok := c.lin.Next(); ok {
				return ins, true
			}
			c.stage = 1
		case 3:
			if c.j == 1 {
				c.j, c.k, c.stage = 2, 0, 1
				return prog.Move(prog.South, c.span), true
			}
			c.stage = 4
			return prog.Move(prog.North, c.span), true
		default:
			return prog.Instr{}, false
		}
	}
}

func (c *planarCursor) Close() { c.stage = 4 }

// PlanarDuration returns the exact local-time duration of Planar(i).
func PlanarDuration(i int) float64 {
	lin := LinearDuration(i)
	reps := math.Ldexp(1, 2*i)
	return lin + 2*(reps*(math.Ldexp(1, -i)+lin)+math.Ldexp(1, i))
}

// PlanarDurationBound returns the paper's 2^{3i+5} upper bound on the
// duration of Planar(i) (used by Claim 3.8).
func PlanarDurationBound(i int) float64 { return math.Ldexp(1, 3*i+5) }

// CoverRadius returns the half-side 2^i of the square Planar(i) covers,
// in local units.
func CoverRadius(i int) float64 { return math.Ldexp(1, i) }

// CoverGap returns the guaranteed passing distance 2^{−(i+1)} of
// Planar(i): the walk passes within this local distance of every point of
// the covered square.
func CoverGap(i int) float64 { return math.Ldexp(1, -(i + 1)) }

// RunWait returns the primitive used by the Latecomers construction:
// go length l in local direction theta, wait w, and walk back:
//
//	go(theta, l); wait(w); go(theta+π, l)
func RunWait(theta, l, w float64) prog.Program {
	return prog.Instrs(
		prog.Move(theta, l),
		prog.Wait(w),
		prog.Move(theta+math.Pi, l),
	)
}

// RunWaitDuration returns the local duration of RunWait(·, l, w).
func RunWaitDuration(l, w float64) float64 { return 2*l + w }
