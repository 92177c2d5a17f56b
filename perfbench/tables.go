package main

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cgkk"
	"repro/internal/exps"
	"repro/internal/inst"
	"repro/internal/latecomers"
	"repro/internal/report"
)

// tableParams sizes the paper-tables workload: the arguments rvtable
// passes to the exps table functions.
type tableParams struct {
	seed      int64 // rvtable -seed
	n         int   // rvtable -n
	t5Samples int
	budgets   exps.Budgets
}

// rvtableParams is exactly `rvtable -exp all -n 5` (seed 1, default
// budgets, in-process pool over GOMAXPROCS). The tables are fixed: the
// workload seed only orders the artifacts within each pass, so every
// run repeats the same published computation.
func rvtableParams() tableParams {
	return tableParams{seed: 1, n: 5, t5Samples: 2_000_000, budgets: exps.DefaultBudgets()}
}

// artifact is one deliverable of the paper: a table or the figure set.
type artifact struct {
	name string
	make func() (*report.Table, string) // the table (nil for figures) and its rendered text
}

// artifacts lists what rvtable and rvfigures compute, in their order,
// with rvtable's per-table seed offsets.
func artifacts(tp tableParams) []artifact {
	b, s := tp.budgets, tp.seed
	table := func(name string, f func() *report.Table) artifact {
		return artifact{name, func() (*report.Table, string) {
			t := f()
			return t, t.String()
		}}
	}
	return []artifact{
		table("T1", func() *report.Table { return exps.T1(s, tp.n, b) }),
		table("T2", func() *report.Table { return exps.T2(s+1, tp.n, b) }),
		table("T3", func() *report.Table { return exps.T3(s+2, min(tp.n, 3), b) }),
		table("T4", func() *report.Table { return exps.T4(s+3, b) }),
		table("T5", func() *report.Table { return exps.T5(tp.t5Samples, s+4, b) }),
		table("T6", func() *report.Table { return exps.T6(s+5, b) }),
		{"figures", func() (*report.Table, string) {
			figs := exps.Figures()
			names := make([]string, 0, len(figs))
			for name := range figs {
				names = append(names, name)
			}
			sort.Strings(names)
			var sb strings.Builder
			for _, name := range names {
				sb.WriteString(name + "\n" + figs[name])
			}
			return nil, sb.String()
		}},
	}
}

// t1Rows and t3Classes mirror the row order of exps.T1 and exps.T3, so
// set-up can redraw the instances those tables draw from the same seed.
var (
	t1Rows = []inst.Class{
		inst.ClassSimultaneousNonSync, inst.ClassSimultaneousRotated, inst.ClassLatecomer,
		inst.ClassMirrorInterior, inst.ClassClockDrift, inst.ClassSpeedOnly,
		inst.ClassRotatedDelayed, inst.ClassBoundaryS1, inst.ClassBoundaryS2,
		inst.ClassInfeasibleShift, inst.ClassInfeasibleMirror,
	}
	t3Classes = []inst.Class{
		inst.ClassSimultaneousNonSync, inst.ClassSimultaneousRotated, inst.ClassLatecomer,
		inst.ClassMirrorInterior, inst.ClassClockDrift, inst.ClassRotatedDelayed,
		inst.ClassBoundaryS1, inst.ClassBoundaryS2,
	}
	// t3Contracts are the T3 columns' contracts, in column order.
	t3Contracts = []func(inst.Instance) bool{
		cgkk.Covered, latecomers.Covered, inst.Instance.CoveredByAURV, inst.Instance.Feasible,
	}
)

// tableRef is the paper-tables reference built in set-up: which T3
// cells lie inside their algorithm's contract (and so must read n/n),
// plus the instances of the budget-exhausting replay the traced run
// times (the out-of-contract T3 cell CGKK × S1 boundary and the T1
// infeasible-shift class).
type tableRef struct {
	t3InContract [][]bool // [T3 row][T3 algorithm column]
	replayS1     []inst.Instance
	replayShift  []inst.Instance
}

func newTableRef(tp tableParams) *tableRef {
	ref := &tableRef{}
	g := inst.NewGen(tp.seed + 2) // T3's seed
	for _, c := range t3Classes {
		samples := g.DrawN(c, min(tp.n, 3))
		row := make([]bool, len(t3Contracts))
		for col, covered := range t3Contracts {
			row[col] = true
			for _, in := range samples {
				row[col] = row[col] && covered(in)
			}
		}
		ref.t3InContract = append(ref.t3InContract, row)
		if c == inst.ClassBoundaryS1 {
			ref.replayS1 = samples
		}
	}
	g = inst.NewGen(tp.seed) // T1's seed
	for _, c := range t1Rows {
		samples := g.DrawN(c, tp.n)
		if c == inst.ClassInfeasibleShift {
			ref.replayShift = samples
		}
	}
	return ref
}

// fraction parses a "k/n" table cell.
func fraction(cell string) (k, n int, ok bool) {
	a, b, found := strings.Cut(strings.TrimSpace(cell), "/")
	if !found {
		return 0, 0, false
	}
	k, errK := strconv.Atoi(a)
	n, errN := strconv.Atoi(b)
	return k, n, errK == nil && errN == nil
}

// full reports whether a "k/n" cell reads n/n with n > 0.
func full(cell string) bool {
	k, n, ok := fraction(cell)
	return ok && n > 0 && k == n
}

// checkTable applies the theorem checks of one table, one operation per
// checked row or cell.
func checkTable(r *result, name string, t *report.Table, ref *tableRef) {
	switch name {
	case "T1": // Theorem 3.1: predicate and simulation agree on every sample
		r.check(len(t.Rows) == len(t1Rows), "T1 has %d rows", len(t.Rows))
		for _, row := range t.Rows {
			r.check(full(row[4]), "T1 %s agree %s", row[0], row[4])
		}
	case "T2": // Theorem 3.2: AURV meets every sampled instance
		for _, row := range t.Rows {
			r.check(full(row[2]), "T2 %s met %s", row[0], row[2])
		}
	case "T3": // every in-contract cell meets n/n
		r.check(len(t.Rows) == len(ref.t3InContract), "T3 has %d rows", len(t.Rows))
		for i, row := range t.Rows[:min(len(t.Rows), len(ref.t3InContract))] {
			for col, in := range ref.t3InContract[i] {
				if in {
					r.check(full(row[col+1]), "T3 %s %s %s", row[0], t.Columns[col+1], row[col+1])
				}
			}
		}
	case "T4": // Section 4 and Theorem 4.1 verdicts
		want := []string{"", "", "", "", "defeated", "met at gap exactly r"}
		r.check(len(t.Rows) == len(want), "T4 has %d rows", len(t.Rows))
		for i, row := range t.Rows[:min(len(t.Rows), len(want))] {
			if want[i] == "" {
				r.check(full(row[2]), "T4 %s: %s", row[0], row[2])
			} else {
				r.check(row[2] == want[i], "T4 %s: %s, want %s", row[0], row[2], want[i])
			}
		}
	case "T6": // δ < 0: no one meets; δ = 0: only dedicated; δ > 0: both
		for _, row := range t.Rows {
			delta, err := strconv.ParseFloat(row[0], 64)
			aurv, ded := strings.HasPrefix(row[2], "met"), strings.HasPrefix(row[3], "met")
			ok := err == nil && ded == (delta >= 0) && aurv == (delta > 0)
			r.check(ok, "T6 δ=%s: AURV %q, dedicated %q", row[0], row[2], row[3])
		}
	}
}

// simsIn counts the simulations an artifact ran: the n of every "k/n"
// outcome cell (one run per sample), one per single-run verdict.
func simsIn(name string, t *report.Table) int {
	count := 0
	switch name {
	case "T1", "T2":
		for _, row := range t.Rows {
			n, _ := strconv.Atoi(row[1])
			count += n
		}
	case "T3":
		for _, row := range t.Rows {
			for _, cell := range row[1:] {
				_, n, _ := fraction(cell)
				count += n
			}
		}
	case "T4":
		for _, row := range t.Rows {
			if _, n, ok := fraction(row[2]); ok {
				count += n
			} else {
				count++
			}
		}
	case "T6":
		for _, row := range t.Rows {
			count++ // AURV
			if !strings.HasPrefix(row[3], "n/a") {
				count++ // the dedicated algorithm
			}
		}
	case "figures":
		count = 2 // the simulated trajectories behind Fig4 and Fig5
	}
	return count
}

// tablePass is one pass over every artifact.
type tablePass struct {
	wall   float64
	sims   int
	allocs uint64
	text   string // rendered artifacts in canonical order
}

// runTablePass computes every artifact once, in the given order, then
// checks the outputs. With a tracer it records a span per artifact.
func runTablePass(arts []artifact, order []int, ref *tableRef, r *result, tr *tracer) tablePass {
	var pass tablePass
	tables := make([]*report.Table, len(arts))
	texts := make([]string, len(arts))
	start := time.Now()
	for _, i := range order {
		a := arts[i]
		m0 := mallocs()
		span := tr.start()
		tables[i], texts[i] = a.make()
		tr.end("exps."+a.name, span)
		pass.allocs += mallocs() - m0
	}
	pass.wall = time.Since(start).Seconds()
	for i, a := range arts {
		if tables[i] != nil {
			checkTable(r, a.name, tables[i], ref)
		}
		pass.sims += simsIn(a.name, tables[i])
	}
	pass.text = strings.Join(texts, "\n")
	return pass
}

// tablePasses caps the passes the latency metrics sample, keeping the
// tail at p50 however fast the tables get.
const tablePasses = 39

func runPaperTables(p params, tr *tracer) result {
	var r result
	var ref *tableRef
	set := newSetups(func() { ref = newTableRef(p.tables) })
	arts := artifacts(p.tables)
	rng := rand.New(rand.NewSource(p.seed))
	if p.trace {
		tracedRun(p, tr, &r, func(tr *tracer) (float64, string) {
			pass := runTablePass(arts, rng.Perm(len(arts)), ref, &r, tr)
			return pass.wall, pass.text
		}, layerInputs{replay: tableReplay(ref, p.tables.budgets.MissSegments)})
		return r
	}

	var walls []float64
	var sims int
	var allocs uint64
	var first string
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < p.seconds {
		pass := runTablePass(arts, rng.Perm(len(arts)), ref, &r, nil)
		if len(walls) == 0 {
			first = pass.text
		} else {
			r.check(pass.text == first, "pass %d rendered different artifacts than pass 1", len(walls)+1)
		}
		walls = append(walls, pass.wall)
		sims += pass.sims
		allocs += pass.allocs
		set.due(time.Since(start).Seconds() / p.seconds)
	}
	set.due(1)
	// Throughput over the median pass, as for the stream workloads.
	wall := median(walls)
	r.add("wall_s", wall, "s")
	r.add("sims_per_s", float64(sims/len(walls))/wall, "1/s")
	// A batch here is one regeneration of every artifact, as one
	// rvtable -exp all plus rvfigures invocation does; per-artifact
	// times are the traced run's exps.* metrics. A run holds a handful
	// of passes, fewer than the 40 that p75 needs to have ten beyond
	// it, so the tail is p50 and both latencies read wall_s in ms.
	r.latencyMetrics("passes", latencySample(walls, 1, tablePasses))
	r.add("setup_s", set.median(), "s")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	r.add("allocs_per_sim", float64(allocs)/float64(sims), "count")
	note("paper-tables: %d passes, %d sims per pass", len(walls), sims/len(walls))
	return r
}
