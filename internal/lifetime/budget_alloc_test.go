package lifetime

import (
	"testing"
	"time"
)

// TestFindCoresFilteredSteadyStateAllocs guards the admission hot path:
// after the candidate scratch buffer warms up, the only allocation per
// call is the returned core-index slice the caller keeps.
func TestFindCoresFilteredSteadyStateAllocs(t *testing.T) {
	start := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	cb := NewCoreBudgets(DefaultBudgetConfig(), 32, start)
	cb.FindCoresFiltered(4, time.Minute, nil) // warm the scratch buffer
	allocs := testing.AllocsPerRun(100, func() {
		cb.FindCoresFiltered(4, time.Minute, nil)
	})
	if allocs > 1 {
		t.Fatalf("FindCoresFiltered allocates %.1f objects per call, want <=1 (the result slice)", allocs)
	}
}

// advanceWeek restores cb to st and advances it in 5-minute ticks over
// eight days, crossing one weekly epoch boundary. It returns the tick count.
func advanceWeek(cb *CoreBudgets, st *CoreBudgetsState, start time.Time) int {
	if err := cb.Restore(st); err != nil {
		panic(err)
	}
	const step = 5 * time.Minute
	ticks := int(8 * 24 * time.Hour / step)
	for t := 0; t < ticks; t++ {
		cb.Advance(start.Add(time.Duration(t) * step))
	}
	return ticks
}

// TestCoreBudgetsAdvanceAllocs guards the per-tick path: Advance allocates
// nothing, neither between epoch boundaries nor when it rolls every core.
// Each run covers a whole tick sequence, so a single allocation anywhere
// in it shows up.
func TestCoreBudgetsAdvanceAllocs(t *testing.T) {
	start := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	cb := NewCoreBudgets(DefaultBudgetConfig(), 64, start)
	st := cb.Snapshot()
	allocs := testing.AllocsPerRun(5, func() { advanceWeek(cb, st, start) })
	if allocs != 0 {
		t.Fatalf("CoreBudgets.Advance allocates %.0f objects per eight-day sequence, want 0", allocs)
	}
	if !cb.Core(0).EpochStart().Equal(start.Add(7 * 24 * time.Hour)) {
		t.Fatalf("sequence did not cross the epoch: epoch start %v", cb.Core(0).EpochStart())
	}
}

// BenchmarkCoreBudgetsAdvance measures the sOA tick path's ledger cost:
// 64 cores advanced in 5-minute ticks across eight days, crossing one
// weekly epoch.
func BenchmarkCoreBudgetsAdvance(b *testing.B) {
	start := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	cb := NewCoreBudgets(DefaultBudgetConfig(), 64, start)
	st := cb.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	ticks := 0
	for i := 0; i < b.N; i++ {
		ticks += advanceWeek(cb, st, start)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/tick")
}
