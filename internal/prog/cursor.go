// Cursor engine: direct-call pull iteration over programs.
//
// A Program is a factory of Cursors — plain structs whose Next method
// returns the following instruction with an ordinary function call, so
// pulling an instruction costs a handful of nanoseconds and no
// coroutine switch. The astronomically scheduled programs of
// Algorithm 1 emit millions of instructions per run, making this the
// hottest path of the simulator. Every combinator of this package
// returns a factory of one of the cursor types below.
package prog

// Cursor is a single-use pull stream of instructions. Next returns the
// following instruction, or ok == false when the program is exhausted.
// Close releases resources; it is idempotent, and Next must not be
// called after Close. Cursors are not safe for concurrent use.
type Cursor interface {
	Next() (Instr, bool)
	Close()
}

// NewCursor opens a pull cursor over the program. It is p(), kept as a
// named entry point because the repository benchmark calls it.
func NewCursor(p Program) Cursor { return p() }

// ---- Cursor implementations of the combinators. ----

type emptyCursor struct{}

func (emptyCursor) Next() (Instr, bool) { return Instr{}, false }
func (emptyCursor) Close()              {}

// sliceCursor emits the instructions of a fixed list, skipping
// zero-duration entries (the Instrs contract).
type sliceCursor struct {
	list []Instr
	i    int
}

func (c *sliceCursor) Next() (Instr, bool) {
	for c.i < len(c.list) {
		ins := c.list[c.i]
		c.i++
		if ins.Amount == 0 {
			continue
		}
		return ins, true
	}
	return Instr{}, false
}
func (c *sliceCursor) Close() { c.i = len(c.list) }

// seqCursor concatenates sub-cursors opened lazily from programs.
type seqCursor struct {
	ps  []Program
	cur Cursor
	i   int
}

func (c *seqCursor) Next() (Instr, bool) {
	for {
		if c.cur == nil {
			if c.i >= len(c.ps) {
				return Instr{}, false
			}
			c.cur = c.ps[c.i]()
			c.i++
		}
		if ins, ok := c.cur.Next(); ok {
			return ins, true
		}
		c.cur.Close()
		c.cur = nil
	}
}

func (c *seqCursor) Close() {
	if c.cur != nil {
		c.cur.Close()
		c.cur = nil
	}
	c.i = len(c.ps)
}

// foreverCursor runs gen(1), gen(2), … without end. gen yields cursors
// directly, so per-round construction costs no Program wrapper.
type foreverCursor struct {
	gen func(i int) Cursor
	cur Cursor
	i   int
}

func (c *foreverCursor) Next() (Instr, bool) {
	for {
		if c.cur == nil {
			c.i++
			c.cur = c.gen(c.i)
		}
		if ins, ok := c.cur.Next(); ok {
			return ins, true
		}
		c.cur.Close()
		c.cur = nil
	}
}

func (c *foreverCursor) Close() {
	if c.cur != nil {
		c.cur.Close()
		c.cur = nil
	}
	c.gen = nil
}

// repeatCursor runs gen(0), …, gen(n-1): the bounded Forever.
type repeatCursor struct {
	gen  func(j int) Cursor
	cur  Cursor
	j, n int
}

func (c *repeatCursor) Next() (Instr, bool) {
	for {
		if c.cur == nil {
			if c.j >= c.n {
				return Instr{}, false
			}
			c.cur = c.gen(c.j)
			c.j++
		}
		if ins, ok := c.cur.Next(); ok {
			return ins, true
		}
		c.cur.Close()
		c.cur = nil
	}
}

func (c *repeatCursor) Close() {
	if c.cur != nil {
		c.cur.Close()
		c.cur = nil
	}
	c.j = c.n
}

// rotateCursor advances every move direction by alpha.
type rotateCursor struct {
	src   Cursor
	alpha float64
}

func (c *rotateCursor) Next() (Instr, bool) {
	ins, ok := c.src.Next()
	if ok && ins.Op == OpMove {
		ins.Theta += c.alpha
	}
	return ins, ok
}
func (c *rotateCursor) Close() { c.src.Close() }

// budgetCursor truncates its source after exactly T local time units,
// splitting the final instruction and padding an early-ending source
// with a closing wait.
type budgetCursor struct {
	src     Cursor
	T       float64
	elapsed float64
	done    bool
}

func (c *budgetCursor) Next() (Instr, bool) {
	if c.done {
		return Instr{}, false
	}
	ins, ok := c.src.Next()
	if !ok {
		c.done = true
		if c.elapsed < c.T {
			return Wait(c.T - c.elapsed), true
		}
		return Instr{}, false
	}
	d := ins.Duration()
	if c.elapsed+d <= c.T {
		c.elapsed += d
		return ins, true
	}
	head, _ := ins.Split(c.T - c.elapsed)
	c.elapsed = c.T
	c.done = true
	if head.Amount > 0 {
		return head, true
	}
	return Instr{}, false
}

func (c *budgetCursor) Close() {
	c.done = true
	c.src.Close()
}

// timeSliceCursor cuts the source into sliceDur-long slices separated
// by wait(pause), splitting instructions exactly at slice boundaries.
type timeSliceCursor struct {
	src             Cursor
	sliceDur, pause float64
	inSlice         float64
	carry           Instr // remainder of a split instruction
	hasCarry        bool
	pausePending    bool
}

func (c *timeSliceCursor) Next() (Instr, bool) {
	for {
		if c.pausePending {
			c.pausePending = false
			c.inSlice = 0
			return Wait(c.pause), true
		}
		var ins Instr
		if c.hasCarry {
			ins, c.hasCarry = c.carry, false
		} else {
			var ok bool
			if ins, ok = c.src.Next(); !ok {
				return Instr{}, false
			}
			if ins.Amount <= 0 {
				continue
			}
		}
		room := c.sliceDur - c.inSlice
		if ins.Duration() <= room {
			c.inSlice += ins.Duration()
			if c.inSlice == c.sliceDur {
				c.pausePending = true
			}
			return ins, true
		}
		head, tail := ins.Split(room)
		c.carry, c.hasCarry = tail, true
		c.pausePending = true
		if head.Amount > 0 {
			return head, true
		}
	}
}

func (c *timeSliceCursor) Close() { c.src.Close() }

// recordedCursor appends every pulled instruction to *rec.
type recordedCursor struct {
	src Cursor
	rec *[]Instr
}

func (c *recordedCursor) Next() (Instr, bool) {
	ins, ok := c.src.Next()
	if ok {
		*c.rec = append(*c.rec, ins)
	}
	return ins, ok
}
func (c *recordedCursor) Close() { c.src.Close() }

// backtrackCursor replays recorded instructions backwards (moves
// reversed, waits skipped).
type backtrackCursor struct {
	rec []Instr
	i   int // next index to replay, counting down
}

func (c *backtrackCursor) Next() (Instr, bool) {
	for c.i >= 0 {
		ins := c.rec[c.i].Reversed()
		c.i--
		if ins.Amount == 0 {
			continue
		}
		return ins, true
	}
	return Instr{}, false
}
func (c *backtrackCursor) Close() { c.i = -1 }

// withBacktrackCursor emits the source and then the reverse of
// everything it emitted, delegating the replay to an embedded
// backtrackCursor so the reversal rules live in one place.
type withBacktrackCursor struct {
	src  Cursor
	rec  []Instr
	back backtrackCursor
	in   bool // replay phase entered
}

func (c *withBacktrackCursor) Next() (Instr, bool) {
	if !c.in {
		if ins, ok := c.src.Next(); ok {
			c.rec = append(c.rec, ins)
			return ins, true
		}
		c.src.Close()
		c.in = true
		c.back = backtrackCursor{rec: c.rec, i: len(c.rec) - 1}
	}
	return c.back.Next()
}

func (c *withBacktrackCursor) Close() {
	if !c.in {
		c.src.Close()
		c.in = true
	}
	c.back.Close()
}
