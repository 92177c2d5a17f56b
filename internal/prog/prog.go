// Package prog represents the move/wait programs executed by agents and
// the combinators used by Algorithm 1 of the paper to assemble them.
//
// The paper's model (§1.2) allows two instructions:
//
//	go(dir, d) — move d of the agent's length units in direction dir of
//	             its private system,
//	wait(z)    — stay idle for z of the agent's time units.
//
// Since an agent's length unit is the distance it covers in one of its
// time units, *both* instructions last exactly Amount local time units,
// which makes time-budgeted composition (lines 10, 17 of Algorithm 1)
// uniform.
//
// A Program is a lazy instruction stream, represented as a factory of
// pull cursors (cursor.go): every call opens a fresh Cursor, so a
// program can be iterated any number of times. The rendezvous
// algorithms are infinite programs and the simulator pulls from them on
// demand. Combinators provided here implement exactly the program
// surgery Algorithm 1 performs: rotation into a Rot(α) system, time
// budgeting, time slicing with interleaved waits, and path recording +
// backtracking. All adapts a program to a range-over-func loop.
package prog

import (
	"iter"
	"math"
)

// Op distinguishes the two instruction kinds.
type Op int

const (
	// OpMove is go(dir, d).
	OpMove Op = iota
	// OpWait is wait(z).
	OpWait
)

// Instr is a single program instruction in the agent's private system.
type Instr struct {
	Op     Op
	Theta  float64 // polar direction angle in the local system (moves only)
	Amount float64 // distance in local length units (moves) or duration in local time units (waits)
}

// Move returns go(theta, d).
func Move(theta, d float64) Instr { return Instr{OpMove, theta, d} }

// Wait returns wait(z).
func Wait(z float64) Instr { return Instr{OpWait, 0, z} }

// Compass direction angles (the paper's N, S, E, W shorthand).
const (
	East  = 0.0
	North = math.Pi / 2
	West  = math.Pi
	South = 3 * math.Pi / 2
)

// Duration returns the instruction's duration in local time units.
func (ins Instr) Duration() float64 { return ins.Amount }

// Reversed returns the move traversed backwards. Waits reverse to
// zero-length waits (backtracking replays the path, not the idle time —
// see lines 12 and 20 of Algorithm 1, whose analysis in Claim 3.8 bounds
// backtracking by the path length only).
func (ins Instr) Reversed() Instr {
	if ins.Op == OpWait {
		return Wait(0)
	}
	return Move(ins.Theta+math.Pi, ins.Amount)
}

// Split cuts the instruction after d local time units, returning the
// executed head and the remaining tail. d must be in [0, Duration].
func (ins Instr) Split(d float64) (head, tail Instr) {
	head, tail = ins, ins
	head.Amount = d
	tail.Amount = ins.Amount - d
	return
}

// A Program is a lazy, re-iterable instruction stream: each call opens
// a fresh single-use Cursor over it. A program shared between
// goroutines must be safe to call concurrently.
type Program func() Cursor

// All returns the program as a push iterator for range loops. Breaking
// out of the loop closes the cursor.
func All(p Program) iter.Seq[Instr] {
	return func(yield func(Instr) bool) {
		c := p()
		defer c.Close()
		for {
			ins, ok := c.Next()
			if !ok || !yield(ins) {
				return
			}
		}
	}
}

// Empty is the program with no instructions.
func Empty() Program {
	return func() Cursor { return emptyCursor{} }
}

// Instrs returns a program that emits the given instructions.
func Instrs(list ...Instr) Program {
	return func() Cursor { return &sliceCursor{list: list} }
}

// Seq concatenates programs.
func Seq(ps ...Program) Program {
	return func() Cursor { return &seqCursor{ps: ps} }
}

// Forever yields the programs produced by gen(1), gen(2), … without end.
// It is the "repeat" loop of Algorithm 1. gen is invoked lazily, each
// round's program only when the previous round has been exhausted.
func Forever(gen func(i int) Program) Program {
	genC := func(i int) Cursor { return gen(i)() }
	return func() Cursor { return &foreverCursor{gen: genC} }
}

// Repeat yields the programs produced by gen(0), …, gen(n-1): the
// bounded counterpart of Forever, used for the per-phase epoch loops of
// Algorithm 1 (block 1) and the Latecomers sweep. gen is invoked
// lazily.
func Repeat(n int, gen func(j int) Program) Program {
	genC := func(j int) Cursor { return gen(j)() }
	return func() Cursor { return &repeatCursor{gen: genC, n: n} }
}

// OnStart invokes fn every time iteration of the program begins (before
// its first instruction is produced). Algorithm 1 uses it to expose
// phase/block progress to observers.
func OnStart(p Program, fn func()) Program {
	return func() Cursor { fn(); return p() }
}

// Rotate re-expresses a program in the local system Rot(alpha): every
// move direction is advanced by alpha (counterclockwise in the agent's
// own system, per §2 of the paper).
func Rotate(p Program, alpha float64) Program {
	return func() Cursor { return &rotateCursor{src: p(), alpha: alpha} }
}

// Budget truncates a program after exactly T local time units, splitting
// the final instruction if needed. This is "execute P during time T"
// (lines 10 and 17 of Algorithm 1). If the program runs out before the
// budget, the remainder is padded with a single wait so the wrapper
// still consumes exactly T local time (an agent that has finished early
// simply idles; durations in the analysis assume the full window). The
// padding is only produced while the consumer is still pulling — a
// consumer that stops early never receives it.
func Budget(p Program, T float64) Program {
	return func() Cursor { return &budgetCursor{src: p(), T: T} }
}

// TimeSlice cuts a program into consecutive slices of sliceDur local time
// units and emits wait(pause) after every slice. This implements line 18
// of Algorithm 1: S₁ wait(2^i) S₂ wait(2^i) … Slices are formed by
// splitting instructions exactly at slice boundaries.
func TimeSlice(p Program, sliceDur, pause float64) Program {
	return func() Cursor {
		return &timeSliceCursor{src: p(), sliceDur: sliceDur, pause: pause}
	}
}

// Recorded runs a program while appending every emitted instruction to
// *rec (which the caller typically backtracks afterwards). Instructions
// are recorded as they are pulled by the consumer.
func Recorded(p Program, rec *[]Instr) Program {
	return func() Cursor { return &recordedCursor{src: p(), rec: rec} }
}

// BacktrackOf returns the program that retraces the recorded instructions
// backwards (moves reversed, waits skipped), returning the agent to the
// point where the recording began.
func BacktrackOf(rec []Instr) Program {
	return func() Cursor { return &backtrackCursor{rec: rec, i: len(rec) - 1} }
}

// WithBacktrack emits p and then the reverse of everything p emitted.
// It implements the pattern of lines 10–12 and 18–20 of Algorithm 1.
func WithBacktrack(p Program) Program {
	return func() Cursor { return &withBacktrackCursor{src: p()} }
}

// TotalDuration sums the local durations of a finite program. It must not
// be called on infinite programs.
func TotalDuration(p Program) float64 {
	sum := 0.0
	for ins := range All(p) {
		sum += ins.Duration()
	}
	return sum
}

// Displacement returns the net local displacement of a finite program.
func Displacement(p Program) (dx, dy float64) {
	for ins := range All(p) {
		if ins.Op == OpMove {
			s, c := math.Sincos(ins.Theta)
			dx += c * ins.Amount
			dy += s * ins.Amount
		}
	}
	return
}

// Collect materializes a finite program into a slice (testing helper).
func Collect(p Program) []Instr {
	var out []Instr
	for ins := range All(p) {
		out = append(out, ins)
	}
	return out
}

// Take returns at most the first n instructions of a program; n ≤ 0
// yields none.
func Take(p Program, n int) []Instr {
	if n <= 0 {
		return nil
	}
	var out []Instr
	for ins := range All(p) {
		out = append(out, ins)
		if len(out) == n {
			break
		}
	}
	return out
}
