package prog

// Differential suite for the cursor engine: every combinator is
// compared against a frozen reference copy of the pre-cursor push
// implementation (refXxx below, typed as plain iter.Seq[Instr]). The
// reference closures are the exact seed-era code, with one deliberate
// divergence: refBudget carries the iter.Seq contract fix (no padding
// wait after the consumer has stopped), which the cursor engine
// satisfies structurally and which the seed implementation violated —
// see TestBudgetEarlyBreakRegression.
//
// Equality is exact (float bit equality): the cursor implementations
// perform the same arithmetic in the same order as the closures, so any
// divergence is a real behavior change, not rounding.

import (
	"iter"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// ---- Frozen reference implementations (seed push closures). ----

func refInstrs(list ...Instr) iter.Seq[Instr] {
	return func(yield func(Instr) bool) {
		for _, ins := range list {
			if ins.Amount == 0 {
				continue
			}
			if !yield(ins) {
				return
			}
		}
	}
}

func refSeq(ps ...iter.Seq[Instr]) iter.Seq[Instr] {
	return func(yield func(Instr) bool) {
		for _, p := range ps {
			stop := false
			p(func(ins Instr) bool {
				if !yield(ins) {
					stop = true
					return false
				}
				return true
			})
			if stop {
				return
			}
		}
	}
}

func refForever(gen func(i int) iter.Seq[Instr]) iter.Seq[Instr] {
	return func(yield func(Instr) bool) {
		for i := 1; ; i++ {
			stop := false
			gen(i)(func(ins Instr) bool {
				if !yield(ins) {
					stop = true
					return false
				}
				return true
			})
			if stop {
				return
			}
		}
	}
}

func refRepeat(n int, gen func(j int) iter.Seq[Instr]) iter.Seq[Instr] {
	return func(yield func(Instr) bool) {
		for j := 0; j < n; j++ {
			stop := false
			gen(j)(func(ins Instr) bool {
				if !yield(ins) {
					stop = true
					return false
				}
				return true
			})
			if stop {
				return
			}
		}
	}
}

func refRotate(p iter.Seq[Instr], alpha float64) iter.Seq[Instr] {
	return func(yield func(Instr) bool) {
		p(func(ins Instr) bool {
			if ins.Op == OpMove {
				ins.Theta += alpha
			}
			return yield(ins)
		})
	}
}

// refBudget is the seed implementation plus the contract fix: the
// stopped flag suppresses the padding wait once the consumer has
// returned false.
func refBudget(p iter.Seq[Instr], T float64) iter.Seq[Instr] {
	return func(yield func(Instr) bool) {
		elapsed := 0.0
		stopped := false
		p(func(ins Instr) bool {
			d := ins.Duration()
			if elapsed+d <= T {
				elapsed += d
				if !yield(ins) {
					stopped = true
					return false
				}
				return true
			}
			head, _ := ins.Split(T - elapsed)
			elapsed = T
			if head.Amount > 0 {
				if !yield(head) {
					stopped = true
				}
			}
			return false
		})
		if !stopped && elapsed < T {
			yield(Wait(T - elapsed))
		}
	}
}

func refTimeSlice(p iter.Seq[Instr], sliceDur, pause float64) iter.Seq[Instr] {
	return func(yield func(Instr) bool) {
		inSlice := 0.0
		stop := false
		emit := func(ins Instr) bool {
			if !yield(ins) {
				stop = true
				return false
			}
			return true
		}
		p(func(ins Instr) bool {
			for ins.Amount > 0 {
				room := sliceDur - inSlice
				if ins.Duration() <= room {
					inSlice += ins.Duration()
					if !emit(ins) {
						return false
					}
					ins.Amount = 0
					if inSlice == sliceDur {
						if !emit(Wait(pause)) {
							return false
						}
						inSlice = 0
					}
					break
				}
				head, tail := ins.Split(room)
				if head.Amount > 0 && !emit(head) {
					return false
				}
				if !emit(Wait(pause)) {
					return false
				}
				inSlice = 0
				ins = tail
			}
			return !stop
		})
	}
}

func refRecorded(p iter.Seq[Instr], rec *[]Instr) iter.Seq[Instr] {
	return func(yield func(Instr) bool) {
		p(func(ins Instr) bool {
			*rec = append(*rec, ins)
			return yield(ins)
		})
	}
}

func refBacktrackOf(rec []Instr) iter.Seq[Instr] {
	return func(yield func(Instr) bool) {
		for i := len(rec) - 1; i >= 0; i-- {
			ins := rec[i].Reversed()
			if ins.Amount == 0 {
				continue
			}
			if !yield(ins) {
				return
			}
		}
	}
}

func refWithBacktrack(p iter.Seq[Instr]) iter.Seq[Instr] {
	return func(yield func(Instr) bool) {
		var rec []Instr
		stop := false
		refRecorded(p, &rec)(func(ins Instr) bool {
			if !yield(ins) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
		refBacktrackOf(rec)(yield)
	}
}

// ---- Comparison helpers. ----

func instrsEqual(a, b []Instr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refTake returns at most the first n instructions of a reference
// stream (the reference-side Take, for infinite references).
func refTake(s iter.Seq[Instr], n int) []Instr {
	var out []Instr
	for ins := range s {
		if len(out) == n {
			break
		}
		out = append(out, ins)
	}
	return out
}

// assertEquiv drains the cursor program and the collected reference
// fully and at every truncation length up to the full stream
// (exercising early-stop paths), requiring exact instruction equality
// throughout.
func assertEquiv(t *testing.T, name string, cursorP Program, refP iter.Seq[Instr]) {
	t.Helper()
	want := slices.Collect(refP)
	got := Collect(cursorP)
	if !instrsEqual(got, want) {
		t.Fatalf("%s: cursor stream diverges from reference\ncursor: %v\nref:    %v", name, got, want)
	}
	for n := 0; n <= len(want); n++ {
		if g := Take(cursorP, n); !instrsEqual(g, want[:min(n, len(want))]) {
			t.Fatalf("%s: Take(%d) = %v, want prefix %v", name, n, g, want[:min(n, len(want))])
		}
	}
}

// randInstrs draws a random finite instruction list (moves, waits, and
// occasional zero-duration entries, which Instrs must skip).
func randInstrs(rng *rand.Rand, n int) []Instr {
	list := make([]Instr, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0:
			list = append(list, Wait(rng.Float64()*3))
		case 1:
			list = append(list, Wait(0)) // must be skipped
		default:
			list = append(list, Move(rng.Float64()*2*math.Pi, 0.05+rng.Float64()*4))
		}
	}
	return list
}

// ---- Per-combinator equivalence. ----

func TestCursorEquivInstrs(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 50; trial++ {
		list := randInstrs(rng, rng.Intn(8))
		assertEquiv(t, "Instrs", Instrs(list...), refInstrs(list...))
	}
	assertEquiv(t, "Empty", Empty(), refInstrs())
}

func TestCursorEquivSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 50; trial++ {
		var cs []Program
		var rs []iter.Seq[Instr]
		for k := 0; k < rng.Intn(4); k++ {
			list := randInstrs(rng, rng.Intn(5))
			cs = append(cs, Instrs(list...))
			rs = append(rs, refInstrs(list...))
		}
		assertEquiv(t, "Seq", Seq(cs...), refSeq(rs...))
	}
}

func TestCursorEquivForever(t *testing.T) {
	gen := func(i int) Program { return Instrs(Wait(float64(i)), Move(0.1*float64(i), 1)) }
	refGen := func(i int) iter.Seq[Instr] { return refInstrs(Wait(float64(i)), Move(0.1*float64(i), 1)) }
	got := Take(Forever(gen), 17)
	want := refTake(refForever(refGen), 17)
	if !instrsEqual(got, want) {
		t.Fatalf("Forever: %v vs %v", got, want)
	}
}

func TestCursorEquivRepeat(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(5)
		lists := make([][]Instr, n)
		for j := range lists {
			lists[j] = randInstrs(rng, 1+rng.Intn(4))
		}
		gen := func(j int) Program { return Instrs(lists[j]...) }
		refGen := func(j int) iter.Seq[Instr] { return refInstrs(lists[j]...) }
		assertEquiv(t, "Repeat", Repeat(n, gen), refRepeat(n, refGen))
	}
}

func TestCursorEquivRotate(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 50; trial++ {
		list := randInstrs(rng, 1+rng.Intn(6))
		alpha := rng.Float64() * 7
		assertEquiv(t, "Rotate", Rotate(Instrs(list...), alpha), refRotate(refInstrs(list...), alpha))
	}
}

func TestCursorEquivBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for trial := 0; trial < 100; trial++ {
		list := randInstrs(rng, 1+rng.Intn(6))
		T := rng.Float64() * 12 // below, at, or above the program length
		assertEquiv(t, "Budget", Budget(Instrs(list...), T), refBudget(refInstrs(list...), T))
	}
	// Boundary: budget exactly the program duration.
	list := []Instr{Move(0, 2), Wait(3)}
	assertEquiv(t, "Budget-exact", Budget(Instrs(list...), 5), refBudget(refInstrs(list...), 5))
}

func TestCursorEquivTimeSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for trial := 0; trial < 100; trial++ {
		list := randInstrs(rng, 1+rng.Intn(6))
		slice := 0.1 + rng.Float64()*2
		pause := rng.Float64() * 5
		if trial%7 == 0 {
			pause = 0 // zero pauses are emitted verbatim by both paths
		}
		assertEquiv(t, "TimeSlice",
			TimeSlice(Instrs(list...), slice, pause),
			refTimeSlice(refInstrs(list...), slice, pause))
	}
}

func TestCursorEquivRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 50; trial++ {
		list := randInstrs(rng, 1+rng.Intn(6))
		var recC, recR []Instr
		gotC := Collect(Recorded(Instrs(list...), &recC))
		gotR := slices.Collect(refRecorded(refInstrs(list...), &recR))
		if !instrsEqual(gotC, gotR) || !instrsEqual(recC, recR) {
			t.Fatalf("Recorded diverges: %v/%v vs %v/%v", gotC, recC, gotR, recR)
		}
	}
}

func TestCursorEquivBacktrackOf(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	for trial := 0; trial < 50; trial++ {
		rec := randInstrs(rng, rng.Intn(8))
		assertEquiv(t, "BacktrackOf", BacktrackOf(rec), refBacktrackOf(rec))
	}
}

func TestCursorEquivWithBacktrack(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 50; trial++ {
		list := randInstrs(rng, 1+rng.Intn(6))
		assertEquiv(t, "WithBacktrack", WithBacktrack(Instrs(list...)), refWithBacktrack(refInstrs(list...)))
	}
}

// Nested random combinator trees: the composition the algorithm stack
// actually builds (WithBacktrack ∘ TimeSlice ∘ Budget ∘ Rotate ∘ Seq).
func TestCursorEquivNestedTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	for trial := 0; trial < 60; trial++ {
		depth := 1 + rng.Intn(4)
		var build func(d int) (Program, iter.Seq[Instr])
		build = func(d int) (Program, iter.Seq[Instr]) {
			if d == 0 {
				list := randInstrs(rng, 1+rng.Intn(4))
				return Instrs(list...), refInstrs(list...)
			}
			c1, r1 := build(d - 1)
			switch rng.Intn(5) {
			case 0:
				alpha := rng.Float64() * 3
				return Rotate(c1, alpha), refRotate(r1, alpha)
			case 1:
				T := rng.Float64() * 10
				return Budget(c1, T), refBudget(r1, T)
			case 2:
				s, p := 0.2+rng.Float64(), rng.Float64()*4
				return TimeSlice(c1, s, p), refTimeSlice(r1, s, p)
			case 3:
				return WithBacktrack(c1), refWithBacktrack(r1)
			default:
				c2, r2 := build(d - 1)
				return Seq(c1, c2), refSeq(r1, r2)
			}
		}
		c, r := build(depth)
		assertEquiv(t, "nested", c, r)
	}
}

// ---- Cursor plumbing. ----

func TestCursorCloseIdempotent(t *testing.T) {
	for name, p := range map[string]Program{
		"Instrs":        Instrs(Move(0, 1), Wait(2)),
		"Seq":           Seq(Instrs(Move(0, 1)), Instrs(Wait(1))),
		"Budget":        Budget(Instrs(Move(0, 5)), 2),
		"TimeSlice":     TimeSlice(Instrs(Move(0, 5)), 1, 1),
		"WithBacktrack": WithBacktrack(Instrs(Move(0, 1))),
		"Forever":       Forever(func(i int) Program { return Instrs(Wait(1)) }),
		"Repeat":        Repeat(3, func(j int) Program { return Instrs(Wait(1)) }),
	} {
		c := NewCursor(p)
		c.Next()
		c.Close()
		c.Close() // must not panic
		_ = name
	}
}

func TestOnStart(t *testing.T) {
	fired := 0
	p := OnStart(Instrs(Move(0, 1), Wait(1)), func() { fired++ })
	if fired != 0 {
		t.Fatal("OnStart fired at construction")
	}
	got := Collect(p)
	if fired != 1 || len(got) != 2 {
		t.Fatalf("after one drain: fired=%d len=%d", fired, len(got))
	}
	Collect(p)
	if fired != 2 {
		t.Fatalf("OnStart must fire per iteration: fired=%d", fired)
	}
	// Inside a Seq, the marker fires only when iteration reaches it.
	fired = 0
	seq := Seq(Instrs(Move(0, 1)), OnStart(Instrs(Wait(1)), func() { fired++ }))
	c := NewCursor(seq)
	defer c.Close()
	c.Next() // first block's move
	if fired != 0 {
		t.Fatal("marker fired before its block was reached")
	}
	c.Next() // marked block's wait
	if fired != 1 {
		t.Fatalf("marker did not fire on block entry: fired=%d", fired)
	}
}

// ---- The Budget contract fix (satellite regression). ----

// TestBudgetEarlyBreakRegression pins the iter.Seq contract fix: the
// seed implementation yielded its padding wait after the consumer had
// already returned false, which panics under range-over-func ("range
// function continued iteration after function for loop body returned
// false"). Breaking out of a range over a short budgeted program must
// be clean.
func TestBudgetEarlyBreakRegression(t *testing.T) {
	// The program is shorter than the budget, so the seed code would
	// try to emit the padding wait after the break.
	b := Budget(Instrs(Move(0, 1), Move(0, 1)), 100)
	n := 0
	for range All(b) {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("saw %d instructions before break", n)
	}
	// And the padding must still appear on a full drain.
	got := Collect(b)
	if len(got) != 3 || got[2].Op != OpWait || got[2].Amount != 98 {
		t.Fatalf("padding lost on full drain: %v", got)
	}
}
