package prog

// Cursor-level combinator constructors: the allocation-lean spelling of
// the Program combinators for hot builders.
//
// Every Program-returning combinator allocates its factory closure —
// cheap once, but the algorithm builders construct combinator trees
// *per phase* (and block 1 per epoch), so on the simulator's hot path
// those closures dominated program-construction allocations. A builder
// that composes cursors directly pays one cursor struct per combinator
// and wraps a factory around the outermost level only.
//
// Semantics are identical to the Program combinators — these return
// the very same cursor implementations — with one deliberate
// difference: arguments are live cursors, so sub-cursor construction is
// eager where Seq's factory indirection was lazy. Cursor construction
// runs no program code and has no observable effects (OnStart, the one
// construction-observing combinator, has no cursor-level spelling), so
// the instruction streams are indistinguishable; the equivalence suite
// pins this.
//
// A cursor is single-use: unlike a Program, it cannot be re-iterated —
// callers that need re-iterability write a Program literal,
// func() Cursor { … }, that builds a fresh cursor per call.

// SeqOf returns a cursor that concatenates the given cursors in order.
func SeqOf(cs ...Cursor) Cursor { return &seqCursors{cs: cs} }

// seqCursors concatenates pre-built cursors (the eager counterpart of
// seqCursor's factory list).
type seqCursors struct {
	cs []Cursor
	i  int
}

func (c *seqCursors) Next() (Instr, bool) {
	for c.i < len(c.cs) {
		if ins, ok := c.cs[c.i].Next(); ok {
			return ins, true
		}
		c.cs[c.i].Close()
		c.i++
	}
	return Instr{}, false
}

func (c *seqCursors) Close() {
	for ; c.i < len(c.cs); c.i++ {
		c.cs[c.i].Close()
	}
}

// InstrsCursor returns a cursor over the given instructions (the
// cursor-level Instrs; zero-duration entries are skipped).
func InstrsCursor(list ...Instr) Cursor { return &sliceCursor{list: list} }

// RotateCursor advances every move direction of src by alpha (the
// cursor-level Rotate).
func RotateCursor(src Cursor, alpha float64) Cursor {
	return &rotateCursor{src: src, alpha: alpha}
}

// BudgetCursor truncates src after exactly T local time units (the
// cursor-level Budget, padding an early end with a closing wait).
func BudgetCursor(src Cursor, T float64) Cursor {
	return &budgetCursor{src: src, T: T}
}

// TimeSliceCursor cuts src into sliceDur-long slices separated by
// wait(pause) (the cursor-level TimeSlice).
func TimeSliceCursor(src Cursor, sliceDur, pause float64) Cursor {
	return &timeSliceCursor{src: src, sliceDur: sliceDur, pause: pause}
}

// WithBacktrackCursor emits src and then the reverse of everything it
// emitted (the cursor-level WithBacktrack).
func WithBacktrackCursor(src Cursor) Cursor {
	return &withBacktrackCursor{src: src}
}

// RepeatCursor runs gen(0), …, gen(n-1) in order, each round's cursor
// built only when the previous round has been exhausted (the
// cursor-level Repeat).
func RepeatCursor(n int, gen func(j int) Cursor) Cursor {
	return &repeatCursor{gen: gen, n: n}
}

// ForeverCursor runs gen(1), gen(2), … without end (the cursor-level
// Forever).
func ForeverCursor(gen func(i int) Cursor) Cursor {
	return &foreverCursor{gen: gen}
}
