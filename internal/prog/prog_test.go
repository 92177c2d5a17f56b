package prog

import (
	"math"
	"math/rand"
	"testing"
)

const tol = 1e-12

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

func TestInstrBasics(t *testing.T) {
	m := Move(North, 3)
	if m.Duration() != 3 {
		t.Errorf("move duration = %v", m.Duration())
	}
	w := Wait(2)
	if w.Duration() != 2 {
		t.Errorf("wait duration = %v", w.Duration())
	}
	r := m.Reversed()
	if r.Op != OpMove || !approx(math.Mod(r.Theta, 2*math.Pi), math.Mod(North+math.Pi, 2*math.Pi)) || r.Amount != 3 {
		t.Errorf("reversed = %+v", r)
	}
	if got := w.Reversed(); got.Amount != 0 {
		t.Errorf("reversed wait = %+v", got)
	}
	h, tail := m.Split(1)
	if h.Amount != 1 || tail.Amount != 2 || h.Theta != m.Theta || tail.Theta != m.Theta {
		t.Errorf("split = %+v %+v", h, tail)
	}
}

func TestInstrsSkipsZero(t *testing.T) {
	got := Collect(Instrs(Move(0, 1), Wait(0), Move(0, 2)))
	if len(got) != 2 {
		t.Fatalf("got %d instrs", len(got))
	}
}

func TestSeqOrder(t *testing.T) {
	p := Seq(Instrs(Move(0, 1)), Instrs(Wait(2)), Instrs(Move(North, 3)))
	got := Collect(p)
	if len(got) != 3 || got[0].Amount != 1 || got[1].Op != OpWait || got[2].Amount != 3 {
		t.Fatalf("seq = %+v", got)
	}
}

func TestSeqEarlyStop(t *testing.T) {
	p := Seq(Instrs(Move(0, 1), Move(0, 2)), Instrs(Move(0, 3)))
	got := Take(p, 2)
	if len(got) != 2 || got[1].Amount != 2 {
		t.Fatalf("take = %+v", got)
	}
}

func TestForever(t *testing.T) {
	p := Forever(func(i int) Program {
		return Instrs(Wait(float64(i)))
	})
	got := Take(p, 5)
	for i, ins := range got {
		if ins.Amount != float64(i+1) {
			t.Fatalf("forever[%d] = %+v", i, ins)
		}
	}
}

func TestRotate(t *testing.T) {
	p := Rotate(Instrs(Move(0, 1), Wait(1)), math.Pi/2)
	got := Collect(p)
	if !approx(got[0].Theta, math.Pi/2) {
		t.Errorf("rotated theta = %v", got[0].Theta)
	}
	if got[1].Op != OpWait {
		t.Errorf("wait rotated: %+v", got[1])
	}
	// Rotations compose.
	q := Rotate(Rotate(Instrs(Move(0.3, 1)), 0.5), 0.7)
	if got := Collect(q); !approx(got[0].Theta, 1.5) {
		t.Errorf("composed theta = %v", got[0].Theta)
	}
}

func TestBudgetExact(t *testing.T) {
	p := Instrs(Move(0, 2), Wait(3), Move(North, 5))
	b := Budget(p, 6) // takes Move(2), Wait(3), then 1 unit of the last move
	got := Collect(b)
	if len(got) != 3 {
		t.Fatalf("budget = %+v", got)
	}
	if got[2].Op != OpMove || !approx(got[2].Amount, 1) {
		t.Errorf("split tail = %+v", got[2])
	}
	if d := TotalDuration(b); !approx(d, 6) {
		t.Errorf("budget duration = %v", d)
	}
}

func TestBudgetPadsShortProgram(t *testing.T) {
	b := Budget(Instrs(Move(0, 1)), 5)
	got := Collect(b)
	if len(got) != 2 || got[1].Op != OpWait || !approx(got[1].Amount, 4) {
		t.Fatalf("padded = %+v", got)
	}
}

func TestBudgetAtBoundary(t *testing.T) {
	b := Budget(Instrs(Move(0, 2), Move(0, 3)), 2)
	got := Collect(b)
	if len(got) != 1 || !approx(got[0].Amount, 2) {
		t.Fatalf("boundary budget = %+v", got)
	}
}

func TestTimeSlice(t *testing.T) {
	// A 4-unit move sliced into 1-unit slices with 10-unit pauses.
	p := TimeSlice(Instrs(Move(0, 4)), 1, 10)
	got := Collect(p)
	// Expect M1 W10 M1 W10 M1 W10 M1 W10.
	if len(got) != 8 {
		t.Fatalf("timeslice = %+v", got)
	}
	for i, ins := range got {
		if i%2 == 0 {
			if ins.Op != OpMove || !approx(ins.Amount, 1) {
				t.Fatalf("slice %d = %+v", i, ins)
			}
		} else if ins.Op != OpWait || !approx(ins.Amount, 10) {
			t.Fatalf("pause %d = %+v", i, ins)
		}
	}
}

func TestTimeSliceSplitsAcrossInstrs(t *testing.T) {
	// Moves of 0.6 and 0.9 with slice 0.5: boundaries at 0.5, 1.0, 1.5.
	p := TimeSlice(Instrs(Move(0, 0.6), Move(North, 0.9)), 0.5, 1)
	var moveSum, pauseCount float64
	for _, ins := range Collect(p) {
		if ins.Op == OpMove {
			moveSum += ins.Amount
		} else {
			pauseCount++
		}
	}
	if !approx(moveSum, 1.5) {
		t.Errorf("move total = %v", moveSum)
	}
	if pauseCount != 3 {
		t.Errorf("pauses = %v", pauseCount)
	}
}

func TestTimeSliceMovePreservesDirectionPerSlice(t *testing.T) {
	p := TimeSlice(Instrs(Move(0.7, 2)), 0.5, 1)
	for _, ins := range Collect(p) {
		if ins.Op == OpMove && !approx(ins.Theta, 0.7) {
			t.Fatalf("slice changed direction: %+v", ins)
		}
	}
}

func TestWithBacktrackReturnsToOrigin(t *testing.T) {
	p := WithBacktrack(Instrs(Move(0.3, 2), Wait(1), Move(2.1, 4), Move(4.0, 1)))
	dx, dy := Displacement(p)
	if math.Abs(dx) > 1e-9 || math.Abs(dy) > 1e-9 {
		t.Errorf("net displacement (%v, %v)", dx, dy)
	}
}

// Property: WithBacktrack of any random finite program nets to zero
// displacement, and its move length doubles the original's.
func TestQuickBacktrackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		var list []Instr
		moveLen := 0.0
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				list = append(list, Wait(rng.Float64()*3))
			} else {
				d := rng.Float64() * 5
				moveLen += d
				list = append(list, Move(rng.Float64()*2*math.Pi, d))
			}
		}
		p := WithBacktrack(Instrs(list...))
		dx, dy := Displacement(p)
		if math.Hypot(dx, dy) > 1e-8 {
			t.Fatalf("trial %d: net displacement %v", trial, math.Hypot(dx, dy))
		}
		gotMove := 0.0
		for ins := range All(p) {
			if ins.Op == OpMove {
				gotMove += ins.Amount
			}
		}
		if !approx(gotMove, 2*moveLen) {
			t.Fatalf("trial %d: move length %v, want %v", trial, gotMove, 2*moveLen)
		}
	}
}

func TestBacktrackOfSkipsWaits(t *testing.T) {
	rec := []Instr{Move(0, 1), Wait(5), Move(North, 2)}
	got := Collect(BacktrackOf(rec))
	if len(got) != 2 {
		t.Fatalf("backtrack = %+v", got)
	}
	if got[0].Amount != 2 || got[1].Amount != 1 {
		t.Fatalf("backtrack order wrong: %+v", got)
	}
}

// Property: Budget(p, T) has total duration exactly T for any T below or
// above the program's length.
func TestQuickBudgetDuration(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		var list []Instr
		for i := 0; i < n; i++ {
			list = append(list, Move(rng.Float64()*6, 0.1+rng.Float64()*3))
		}
		T := rng.Float64() * 20
		if d := TotalDuration(Budget(Instrs(list...), T)); !approx(d, T) {
			t.Fatalf("trial %d: budget duration %v, want %v", trial, d, T)
		}
	}
}

// Property: TimeSlice preserves the movement content of the program: the
// concatenated move slices equal the original moves.
func TestQuickTimeSlicePreservesPath(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		var list []Instr
		for i := 0; i < n; i++ {
			list = append(list, Move(rng.Float64()*6, 0.1+rng.Float64()*2))
		}
		orig := Instrs(list...)
		sliced := TimeSlice(orig, 0.1+rng.Float64(), rng.Float64()*5)
		odx, ody := Displacement(orig)
		sdx, sdy := Displacement(sliced)
		if !approx(odx, sdx) || !approx(ody, sdy) {
			t.Fatalf("trial %d: displacement changed", trial)
		}
	}
}

// Rotation composes transparently with slicing and budgeting: the
// combinators Algorithm 1 stacks must commute where the semantics say so.
func TestRotateCommutesWithTimeSlice(t *testing.T) {
	base := Instrs(Move(0.4, 2), Move(1.9, 1.5), Wait(1), Move(3.3, 0.7))
	alpha := 0.85
	a := Collect(Rotate(TimeSlice(base, 0.5, 2), alpha))
	b := Collect(TimeSlice(Rotate(base, alpha), 0.5, 2))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Op != b[i].Op || !approx(a[i].Amount, b[i].Amount) {
			t.Fatalf("instr %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Op == OpMove && !approx(a[i].Theta, b[i].Theta) {
			t.Fatalf("theta %d differs: %v vs %v", i, a[i].Theta, b[i].Theta)
		}
	}
}

func TestBudgetOfRotatedBacktrack(t *testing.T) {
	// A budgeted, rotated, backtracked program still nets to zero
	// displacement when the budget covers it entirely.
	inner := WithBacktrack(Instrs(Move(0.3, 2), Move(1.1, 1)))
	total := TotalDuration(inner)
	p := Rotate(Budget(inner, total), 0.7)
	dx, dy := Displacement(p)
	if math.Hypot(dx, dy) > 1e-9 {
		t.Errorf("net displacement %v", math.Hypot(dx, dy))
	}
}

// Nested backtracking: WithBacktrack of a program containing its own
// backtrack still returns to the origin.
func TestNestedBacktrack(t *testing.T) {
	inner := WithBacktrack(Instrs(Move(0.2, 3)))
	outer := WithBacktrack(Seq(inner, Instrs(Move(1.5, 2))))
	dx, dy := Displacement(outer)
	if math.Hypot(dx, dy) > 1e-9 {
		t.Errorf("net displacement %v", math.Hypot(dx, dy))
	}
}

func TestTimeSliceZeroPause(t *testing.T) {
	// A zero pause degenerates to pure slicing (and zero-amount waits are
	// suppressed by Instrs-level consumers; TimeSlice emits them but the
	// simulator skips them).
	p := TimeSlice(Instrs(Move(0, 1)), 0.25, 0)
	moves := 0.0
	for ins := range All(p) {
		if ins.Op == OpMove {
			moves += ins.Amount
		}
	}
	if !approx(moves, 1) {
		t.Errorf("moves = %v", moves)
	}
}

func TestTakeAndCollect(t *testing.T) {
	list := []Instr{Move(0, 1), Move(0, 2), Move(0, 3)}
	finite := Instrs(list...)
	forever := Forever(func(i int) Program { return Instrs(Wait(float64(i))) })
	for _, tc := range []struct {
		name string
		p    Program
		n    int
		want []Instr
	}{
		{"negative", finite, -1, nil},
		{"zero", finite, 0, nil},
		{"one", finite, 1, list[:1]},
		{"two", finite, 2, list[:2]},
		{"len", finite, len(list), list},
		{"len+3", finite, len(list) + 3, list},
		{"empty", Empty(), 2, nil},
		{"forever", forever, 5, []Instr{Wait(1), Wait(2), Wait(3), Wait(4), Wait(5)}},
	} {
		if got := Take(tc.p, tc.n); !instrsEqual(got, tc.want) {
			t.Errorf("%s: Take(%d) = %+v, want %+v", tc.name, tc.n, got, tc.want)
		}
	}
	if got := Collect(finite); !instrsEqual(got, list) {
		t.Fatalf("collect = %+v", got)
	}
	if got := Collect(Empty()); len(got) != 0 {
		t.Fatalf("empty = %+v", got)
	}
}

// TestNewCursorAllocs pins the cost of opening a cursor at exactly the
// cursor's own allocation: a Program is its cursor factory, so nothing
// sits between the call and the cursor. The simulator opens one cursor
// per agent per run, and generator-built programs one per round.
func TestNewCursorAllocs(t *testing.T) {
	p := Instrs(Wait(1))
	allocs := testing.AllocsPerRun(100, func() {
		c := NewCursor(p)
		c.Close()
	})
	if allocs != 1 {
		t.Fatalf("NewCursor(Instrs(…)) allocates %.1f objects; want exactly 1 (the cursor)", allocs)
	}
}
