package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
	"smartoclock/internal/predict"
	"smartoclock/internal/timeseries"
)

// wavyDay builds a day template at step whose slot i holds f(i): distinct
// per-slot values, so a template read at the wrong slot shows up.
func wavyDay(step time.Duration, kind timeseries.DayKind, f func(i int) float64) *timeseries.DayTemplate {
	slots := int(24 * time.Hour / step)
	t := &timeseries.DayTemplate{Step: step, Kind: kind, Slots: make([]float64, slots)}
	for i := range t.Slots {
		t.Slots[i] = f(i)
	}
	return t
}

// wavyWeek builds a week template at step whose weekday and weekend days
// differ, with base setting the level.
func wavyWeek(step time.Duration, base float64) *timeseries.WeekTemplate {
	return &timeseries.WeekTemplate{
		Weekday: wavyDay(step, timeseries.Weekdays, func(i int) float64 { return base + 40*math.Sin(float64(i)/7) }),
		Weekend: wavyDay(step, timeseries.Weekends, func(i int) float64 { return 0.7*base + 25*math.Cos(float64(i)/5) }),
	}
}

// wavyOC builds an overclock template at step with varying requested and
// granted cores.
func wavyOC(step time.Duration, requested, granted float64) *predict.OCTemplate {
	return &predict.OCTemplate{Requested: wavyWeek(step, requested), Granted: wavyWeek(step, granted)}
}

// budgetCaseGOA builds a gOA covering every input kind BudgetTemplates
// reads: templates at step (read slot by slot when BudgetTemplates is asked
// for step), templates at fixed other steps (the At fallback), a nil
// overclock template, a nil power template and an overclock template with
// only one half set.
func budgetCaseGOA(limit float64, step time.Duration) *GOA {
	g := NewGOA("rack", limit)
	g.SetProfile("a-matching", ServerProfile{Power: wavyWeek(step, 300), OC: wavyOC(step, 60, 20), OCCoreCost: 8})
	g.SetProfile("b-hourly", ServerProfile{Power: wavyWeek(time.Hour, 350), OC: wavyOC(15*time.Minute, 50, 10), OCCoreCost: 9})
	g.SetProfile("c-nil-oc", ServerProfile{Power: wavyWeek(step, 280), OCCoreCost: 8})
	g.SetProfile("d-nil-power", ServerProfile{OC: wavyOC(step, 40, 0), OCCoreCost: 7})
	g.SetProfile("e-half-oc", ServerProfile{Power: wavyWeek(step, 320), OC: &predict.OCTemplate{Requested: wavyWeek(step, 30)}, OCCoreCost: 8})
	return g
}

// TestBudgetTemplatesMatchBudgetsAt checks BudgetTemplates slot for slot,
// bit for bit, against BudgetsAt at the reference Monday and Saturday plus
// the slot offset, at the profiles' own step and at steps that force the
// At fallback, with headroom to split and without.
func TestBudgetTemplatesMatchBudgetsAt(t *testing.T) {
	monday := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	saturday := time.Date(2023, 4, 15, 0, 0, 0, 0, time.UTC)
	for _, limit := range []float64{3000, 900} { // 900 W: regular power alone exceeds the limit
		// 1.5 s is a step whose slots start off whole seconds: At's
		// second-resolution lookup must win over a direct slot read there.
		for _, step := range []time.Duration{5 * time.Minute, 15 * time.Minute, time.Hour, 7 * time.Minute, 90 * time.Second, 1500 * time.Millisecond} {
			t.Run(fmt.Sprintf("limit=%v/step=%v", limit, step), func(t *testing.T) {
				g := budgetCaseGOA(limit, step)
				tpls := g.BudgetTemplates(step)
				slots := int(24 * time.Hour / step)
				for i := 0; i < slots; i++ {
					off := time.Duration(i) * step
					wk, we := g.BudgetsAt(monday.Add(off)), g.BudgetsAt(saturday.Add(off))
					for name, tpl := range tpls {
						if len(tpl.Weekday.Slots) != slots || len(tpl.Weekend.Slots) != slots {
							t.Fatalf("%s: %d/%d slots, want %d", name, len(tpl.Weekday.Slots), len(tpl.Weekend.Slots), slots)
						}
						if got, want := tpl.Weekday.Slots[i], wk[name]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s weekday slot %d = %v, BudgetsAt = %v", name, i, got, want)
						}
						if got, want := tpl.Weekend.Slots[i], we[name]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s weekend slot %d = %v, BudgetsAt = %v", name, i, got, want)
						}
					}
				}
			})
		}
	}
}

// TestBudgetTemplatesCountsComputations checks the obs counter: one
// computation per slot per reference day, the gauge left at the last one.
func TestBudgetTemplatesCountsComputations(t *testing.T) {
	reg := metrics.NewRegistry()
	g := budgetCaseGOA(3000, 5*time.Minute)
	g.Instrument(reg, obs.New())
	tpls := g.BudgetTemplates(5 * time.Minute)
	if got := g.obs.computations.Value(); got != 2*288 {
		t.Fatalf("computations = %v, want %d", got, 2*288)
	}
	sum := 0.0
	for _, name := range g.Servers() {
		sum += tpls[name].Weekend.Slots[287]
	}
	if got := g.obs.lastSum.Value(); math.Abs(got-sum) > 1e-9 {
		t.Fatalf("last budget sum = %v, want the last Saturday slot's %v", got, sum)
	}
}

// TestBudgetTemplatesAllocsFlatInSlots guards the slot-indexed loop: the
// allocation count depends on the servers, not on how many slots a day
// has.
func TestBudgetTemplatesAllocsFlatInSlots(t *testing.T) {
	g := budgetCaseGOA(3000, 5*time.Minute)
	hourly := testing.AllocsPerRun(5, func() { g.BudgetTemplates(time.Hour) })
	fine := testing.AllocsPerRun(5, func() { g.BudgetTemplates(5 * time.Minute) })
	if fine > hourly {
		t.Fatalf("BudgetTemplates allocations grow with slots: 24 slots=%.0f, 288 slots=%.0f", hourly, fine)
	}
}

// TestBudgetsAtAllocs pins BudgetsAt's per-call allocations, which zoo,
// chaos, live and the invariant battery pay every tick: the sorted names
// and the returned map, never per-server scratch maps.
func TestBudgetsAtAllocs(t *testing.T) {
	for _, c := range []struct{ servers, max int }{{2, 3}, {8, 3}, {28, 11}} {
		g := NewGOA("rack", 10000)
		for i := 0; i < c.servers; i++ {
			g.SetProfile(fmt.Sprintf("s%02d", i), ServerProfile{Power: flatTemplate(300), OC: flatOC(3, 1), OCCoreCost: 8})
		}
		if allocs := testing.AllocsPerRun(100, func() { g.BudgetsAt(monday9) }); allocs > float64(c.max) {
			t.Errorf("%d servers: BudgetsAt allocates %.0f objects, want <= %d", c.servers, allocs, c.max)
		}
	}
}
