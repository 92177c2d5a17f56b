// Package core implements the paper's primary contribution:
// Algorithm 1, AlmostUniversalRV — the single deterministic algorithm
// that achieves rendezvous for every feasible instance outside the two
// exception sets S1 and S2 (Theorem 3.2).
//
// The algorithm is an infinite repeat loop over phases i = 1, 2, …; each
// phase executes four blocks, one per instance type of §3.1.1:
//
//	block 1 (type 1, mirror):      for j = 1..2^{i+1}:
//	                                   PlanarCowWalk(i) in Rot(jπ/2^i)
//	block 2 (type 2, latecomer):   wait(2^i); run Latecomers for 2^i;
//	                                   backtrack
//	block 3 (type 3, clock drift): wait(2^{W(i)}); PlanarCowWalk(i)
//	block 4 (type 4, cgkk):        slice the solo run of CGKK over time
//	                                   2^i into 2^{2i} pieces of 1/2^i,
//	                                   interleave wait(2^i); backtrack
//
// The wait exponent W(i) is schedule data: the paper prints W(i) = 15·i²,
// chosen for proof convenience; Faithful() reproduces it, Compact() uses
// 10·i, for which PredictPhase re-derives the separation inequalities per
// instance (see DESIGN.md §3 for the substitution argument).
package core

import (
	"math"
	"reflect"

	"repro/internal/cgkk"
	"repro/internal/geom"
	"repro/internal/latecomers"
	"repro/internal/prog"
	"repro/internal/walk"
)

// Schedule collects the tunable constants of Algorithm 1.
type Schedule struct {
	Name string
	// Type3WaitExp is the exponent of the block-3 wait: phase i waits
	// 2^{Type3WaitExp(i)} local time units. Paper: 15·i².
	Type3WaitExp func(i int) float64
	// CGKK is the schedule of the CGKK procedure sliced by block 4.
	// Type-4 instances always have τ = 1, so the drift waits of the
	// standalone CGKK are unnecessary there; ZeroWait keeps the sliced
	// prefix dense in actual search work.
	CGKK cgkk.Schedule
	// canon snapshots the tunables as the standard constructors set
	// them, so Canonical can detect any later field substitution. Only
	// Faithful and Compact set it; a zero Schedule (or any literal a
	// caller assembles) is never canonical.
	canon *schedSnapshot
}

// schedSnapshot is the canonical-identity record of a constructor-built
// Schedule: the original function values (compared by code pointer —
// two copies of one func value share it; a substituted function does
// not) and the names.
type schedSnapshot struct {
	name, cgkkName string
	t3, cgkkWait   func(i int) float64
}

// Canonical reports whether the schedule is still exactly what its
// named constructor produced — no field was swapped since. The wire
// registry needs this: "AlmostUniversalRV(compact)" may only travel by
// name if the local program provably is the registry's program (a
// caller can tweak an exported field without touching Name, and a
// name-only check would then ship the wrong algorithm to workers).
func (s Schedule) Canonical() bool {
	return s.canon != nil &&
		s.Name == s.canon.name &&
		s.CGKK.Name == s.canon.cgkkName &&
		sameFunc(s.Type3WaitExp, s.canon.t3) &&
		sameFunc(s.CGKK.WaitExp, s.canon.cgkkWait)
}

// sameFunc reports whether a and b are copies of one function value.
func sameFunc(a, b func(int) float64) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// sealed stamps the canonical snapshot onto a freshly constructed
// schedule.
func sealed(s Schedule) Schedule {
	s.canon = &schedSnapshot{
		name:     s.Name,
		cgkkName: s.CGKK.Name,
		t3:       s.Type3WaitExp,
		cgkkWait: s.CGKK.WaitExp,
	}
	return s
}

// Faithful reproduces the printed constants of Algorithm 1. Simulable
// through phase 2 with the double-double clock (the phase-3 wait 2^135
// exceeds even dd resolution); prefer Compact for experiments.
func Faithful() Schedule {
	return sealed(Schedule{
		Name:         "faithful",
		Type3WaitExp: func(i int) float64 { return 15 * float64(i) * float64(i) },
		CGKK:         cgkk.ZeroWait(),
	})
}

// Compact replaces the block-3 wait exponent 15·i² by 10·i. The dd clock
// then resolves sight events through phase ~8, and PredictPhase verifies
// the type-3 separation inequalities per instance before promising a
// phase.
func Compact() Schedule {
	return sealed(Schedule{
		Name:         "compact",
		Type3WaitExp: func(i int) float64 { return 10 * float64(i) },
		CGKK:         cgkk.ZeroWait(),
	})
}

// Progress is an optional observer of the generated program. Because
// programs are lazy, the fields reflect exactly how far a simulation
// pulled from the generator. Note that the simulator's wait coalescing
// pulls one instruction ahead of execution when fusing a run of waits,
// so a run halting inside a fused wait at a block boundary can report
// the following block as started even though none of its instructions
// executed (sim.Settings.NoWaitCoalesce restores pull == execute).
type Progress struct {
	Phase int // last phase started (1-based)
	Block int // last block started within the phase (1-4)
}

// The block builders come in two spellings: blockNCursor constructs
// the block's single-use instruction cursor directly (the hot path the
// simulator pulls through — no Program wrappers, no factory slices,
// just the cursor structs), and the exported BlockN wraps that cursor
// construction into a re-iterable Program for composition and tests.

// block1Cursor: the rotated planar walks that solve the mirror (type 1)
// instances. The epochs are generated lazily, one rotated-walk cursor
// at a time.
func block1Cursor(i int) prog.Cursor {
	epochs := 1 << uint(i+1)
	return prog.RepeatCursor(epochs, func(j int) prog.Cursor {
		return prog.RotateCursor(walk.NewPlanar(i), geom.DyadicAngle(j+1, i))
	})
}

// block2Cursor: wait out the delay, run Latecomers for 2^i local time
// units, and backtrack to the start.
func block2Cursor(i int) prog.Cursor {
	span := math.Ldexp(1, i)
	return prog.SeqOf(
		prog.InstrsCursor(prog.Wait(span)),
		prog.WithBacktrackCursor(prog.BudgetCursor(latecomers.ProgramCursor(), span)),
	)
}

// block3Cursor: the clock-drift mechanism.
func block3Cursor(i int, s Schedule) prog.Cursor {
	return prog.SeqOf(
		prog.InstrsCursor(prog.Wait(math.Exp2(s.Type3WaitExp(i)))),
		walk.NewPlanar(i),
	)
}

// block4Cursor: the interleaved-sliced CGKK run.
func block4Cursor(i int, s Schedule) prog.Cursor {
	span := math.Ldexp(1, i)
	slice := math.Ldexp(1, -i)
	return prog.WithBacktrackCursor(
		prog.TimeSliceCursor(prog.BudgetCursor(cgkk.ProgramCursor(s.CGKK), span), slice, span),
	)
}

// blockCursor dispatches to the four block builders.
func blockCursor(i, b int, s Schedule) prog.Cursor {
	switch b {
	case 1:
		return block1Cursor(i)
	case 2:
		return block2Cursor(i)
	case 3:
		return block3Cursor(i, s)
	default:
		return block4Cursor(i, s)
	}
}

// Block1 returns block 1 of phase i: the rotated planar walks that solve
// the mirror (type 1) instances.
func Block1(i int) prog.Program {
	return func() prog.Cursor { return block1Cursor(i) }
}

// Block2 returns block 2 of phase i: wait out the delay, run Latecomers
// for 2^i local time units, and backtrack to the start.
func Block2(i int) prog.Program {
	return func() prog.Cursor { return block2Cursor(i) }
}

// Block3 returns block 3 of phase i: the clock-drift mechanism.
func Block3(i int, s Schedule) prog.Program {
	return func() prog.Cursor { return block3Cursor(i, s) }
}

// Block4 returns block 4 of phase i: the interleaved-sliced CGKK run.
func Block4(i int, s Schedule) prog.Program {
	return func() prog.Cursor { return block4Cursor(i, s) }
}

// Phase returns the full phase i (all four blocks in order).
func Phase(i int, s Schedule) prog.Program {
	return func() prog.Cursor {
		return prog.SeqOf(block1Cursor(i), block2Cursor(i), block3Cursor(i, s), block4Cursor(i, s))
	}
}

// aurvCursor is Algorithm AlmostUniversalRV as one flat state machine
// over (phase, block): each block's cursor is built when the previous
// one exhausts, so a whole phase costs four block constructions and
// nothing else — no per-phase Seq wrappers, factory slices, or marker
// closures (the pre-cursor spelling allocated ~20 wrapper objects per
// phase per agent, the bulk of the T2 kernel's allocations).
type aurvCursor struct {
	s    Schedule
	p    *Progress
	i, b int // current phase (1-based) and block (1–4); i == 0 before the first pull
	cur  prog.Cursor
}

func (c *aurvCursor) Next() (prog.Instr, bool) {
	for {
		if c.cur == nil {
			switch {
			case c.i == 0:
				c.i, c.b = 1, 1
			case c.b < 4:
				c.b++
			default:
				c.i, c.b = c.i+1, 1
			}
			if c.p != nil {
				c.p.Phase, c.p.Block = c.i, c.b
			}
			c.cur = blockCursor(c.i, c.b, c.s)
		}
		if ins, ok := c.cur.Next(); ok {
			return ins, true
		}
		c.cur.Close()
		c.cur = nil
	}
}

func (c *aurvCursor) Close() {
	if c.cur != nil {
		c.cur.Close()
		c.cur = nil
	}
}

// Program returns Algorithm AlmostUniversalRV as an infinite program.
// If p is non-nil it is updated as phases and blocks are generated:
// each block's marker fires when the simulation first pulls from that
// block, so the fields reflect how far a lazy run actually got.
func Program(s Schedule, p *Progress) prog.Program {
	return func() prog.Cursor { return &aurvCursor{s: s, p: p} }
}
