package lifetime

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refCoreBudgets is the ledger set without the epoch-boundary cache: every
// Advance visits every core. CoreBudgets must be indistinguishable from it.
type refCoreBudgets struct {
	cores []*Budget
}

func newRefCoreBudgets(cfg BudgetConfig, n int, start time.Time) *refCoreBudgets {
	r := &refCoreBudgets{cores: make([]*Budget, n)}
	for i := range r.cores {
		r.cores[i] = NewBudget(cfg, start)
	}
	return r
}

func (r *refCoreBudgets) Advance(now time.Time) {
	for _, b := range r.cores {
		b.Advance(now)
	}
}

func (r *refCoreBudgets) Snapshot() *CoreBudgetsState {
	st := &CoreBudgetsState{Cores: make([]BudgetState, len(r.cores))}
	for i, b := range r.cores {
		st.Cores[i] = b.Snapshot()
	}
	return st
}

func (r *refCoreBudgets) Restore(st *CoreBudgetsState) {
	for i, b := range r.cores {
		b.Restore(st.Cores[i])
	}
}

// FindCoresFiltered is the selection CoreBudgets has always made: eligible
// cores in index order, then a selection sort by remaining budget whose
// swaps fix the order among ties.
func (r *refCoreBudgets) FindCoresFiltered(n int, need time.Duration, ok func(core int) bool) []int {
	var cands []coreCand
	for i, b := range r.cores {
		if b.Remaining() >= need && (ok == nil || ok(i)) {
			cands = append(cands, coreCand{i, b.Remaining()})
		}
	}
	if len(cands) < n {
		return nil
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].rem > cands[best].rem {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	out := make([]int, n)
	for i := range out {
		out[i] = cands[i].idx
	}
	return out
}

// sameLedger reports the first difference between two snapshots.
func sameLedger(got, want *CoreBudgetsState) error {
	if len(got.Cores) != len(want.Cores) {
		return fmt.Errorf("%d cores, want %d", len(got.Cores), len(want.Cores))
	}
	for i, g := range got.Cores {
		w := want.Cores[i]
		if !g.EpochStart.Equal(w.EpochStart) || g.Remaining != w.Remaining || g.Reserved != w.Reserved {
			return fmt.Errorf("core %d: %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// TestCoreBudgetsMatchReference drives CoreBudgets and the per-call
// reference through identical seeded random operation sequences — forward,
// equal, backward, exact-boundary and multi-epoch Advance calls, consumption
// with and without reservations, single-core Advance and restores whose
// per-core epoch starts differ — and requires identical ledgers and core
// choices after every operation.
func TestCoreBudgetsMatchReference(t *testing.T) {
	const (
		nCores = 12
		nOps   = 400
		seeds  = 25
		unit   = 30 * time.Minute // coarse amounts keep remaining-budget ties common
	)
	epoch := 10 * time.Hour
	filters := []func(int) bool{nil, func(c int) bool { return c%3 != 1 }}
	for _, carry := range []bool{false, true} {
		for _, maxCarry := range []float64{0, 0.5, 1, 2} {
			cfg := BudgetConfig{Epoch: epoch, Fraction: 0.3, CarryOver: carry, MaxCarryOver: maxCarry}
			t.Run(fmt.Sprintf("carry=%v/max=%v", carry, maxCarry), func(t *testing.T) {
				rolls := 0
				for seed := int64(1); seed <= seeds; seed++ {
					rolls += checkAgainstReference(t, cfg, seed, nCores, nOps, unit, filters)
				}
				if rolls == 0 {
					t.Fatal("no epoch boundary was crossed; the sequences do not exercise rolling")
				}
			})
		}
	}
}

// checkAgainstReference runs one seeded sequence and returns how many
// operations rolled at least one core into a new epoch.
func checkAgainstReference(t *testing.T, cfg BudgetConfig, seed int64, nCores, nOps int, unit time.Duration, filters []func(int) bool) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	now := epoch0
	cb := NewCoreBudgets(cfg, nCores, now)
	ref := newRefCoreBudgets(cfg, nCores, now)
	var saved []*CoreBudgetsState
	rolls := 0
	amount := func() time.Duration { return time.Duration(rng.Intn(8)) * unit }

	for op := 0; op < nOps; op++ {
		before := ref.Snapshot()
		core := rng.Intn(nCores)
		var desc string
		switch k := rng.Intn(12); k {
		case 0, 1: // forward, less than an epoch
			now = now.Add(time.Duration(rng.Int63n(int64(cfg.Epoch / 2))))
			cb.Advance(now)
			ref.Advance(now)
			desc = "advance forward"
		case 2: // equal
			cb.Advance(now)
			ref.Advance(now)
			desc = "advance equal"
		case 3: // backward, without moving the clock
			at := now.Add(-time.Duration(rng.Int63n(int64(2 * cfg.Epoch))))
			cb.Advance(at)
			ref.Advance(at)
			desc = "advance backward"
		case 4: // multi-epoch gap
			now = now.Add(time.Duration(1+rng.Intn(3))*cfg.Epoch + time.Duration(rng.Int63n(int64(cfg.Epoch))))
			cb.Advance(now)
			ref.Advance(now)
			desc = "advance gap"
		case 5: // exactly at, or a nanosecond before, some core's boundary
			b := ref.cores[core]
			at := b.EpochStart().Add(cfg.Epoch - time.Duration(rng.Intn(2)))
			if at.After(now) {
				now = at
			}
			cb.Advance(at)
			ref.Advance(at)
			desc = "advance to boundary"
		case 6: // consume with or without reservation
			d, fromRes := amount(), rng.Intn(2) == 0
			got, want := cb.Core(core).Consume(d, fromRes), ref.cores[core].Consume(d, fromRes)
			if got != want {
				t.Fatalf("seed %d op %d: Consume(%v, %v) on core %d = %v, want %v", seed, op, d, fromRes, core, got, want)
			}
			desc = "consume"
		case 7:
			d := amount()
			if got, want := cb.Core(core).Reserve(d), ref.cores[core].Reserve(d); got != want {
				t.Fatalf("seed %d op %d: Reserve(%v) on core %d = %v, want %v", seed, op, d, core, got, want)
			}
			desc = "reserve"
		case 8:
			d := amount()
			cb.Core(core).ReleaseReservation(d)
			ref.cores[core].ReleaseReservation(d)
			desc = "release"
		case 9: // one core alone, possibly ahead of the set's clock
			at := now.Add(time.Duration(rng.Int63n(int64(2 * cfg.Epoch))))
			cb.Core(core).Advance(at)
			ref.cores[core].Advance(at)
			desc = "core advance"
		case 10: // restore an earlier snapshot: epochs may move backwards
			if len(saved) == 0 {
				continue
			}
			st := saved[rng.Intn(len(saved))]
			if err := cb.Restore(st); err != nil {
				t.Fatal(err)
			}
			ref.Restore(st)
			desc = "restore saved"
		case 11: // restore a ledger whose cores sit in different epochs
			st := &CoreBudgetsState{Cores: make([]BudgetState, nCores)}
			for i := range st.Cores {
				st.Cores[i] = BudgetState{
					EpochStart: now.Add(-time.Duration(rng.Int63n(int64(3 * cfg.Epoch)))),
					Remaining:  amount(),
					Reserved:   amount() / 2,
				}
			}
			if err := cb.Restore(st); err != nil {
				t.Fatal(err)
			}
			ref.Restore(st)
			desc = "restore skewed"
		}
		if rng.Intn(8) == 0 {
			saved = append(saved, cb.Snapshot())
		}

		after := ref.Snapshot()
		if err := sameLedger(cb.Snapshot(), after); err != nil {
			t.Fatalf("seed %d op %d (%s): ledger diverged: %v", seed, op, desc, err)
		}
		for i := range after.Cores {
			if after.Cores[i].EpochStart.After(before.Cores[i].EpochStart) {
				rolls++
				break
			}
		}
		for _, ok := range filters {
			for n := 1; n <= 4; n++ {
				need := time.Duration(rng.Intn(6)) * unit
				got, want := cb.FindCoresFiltered(n, need, ok), ref.FindCoresFiltered(n, need, ok)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d (%s): FindCoresFiltered(%d, %v) = %v, want %v", seed, op, desc, n, need, got, want)
				}
			}
		}
	}
	return rolls
}

// TestFindCoresTieOrder pins the selection's tie order, which the fleet
// goldens depend on: with budgets 1h, 1h, 5h and two cores wanted, the
// selection sort's swap leaves core 1 ahead of core 0.
func TestFindCoresTieOrder(t *testing.T) {
	cfg := BudgetConfig{Epoch: 100 * time.Hour, Fraction: 0.05}
	cb := NewCoreBudgets(cfg, 3, epoch0)
	cb.Core(0).Consume(4*time.Hour, false)
	cb.Core(1).Consume(4*time.Hour, false)
	if got := cb.FindCores(2, 0); !reflect.DeepEqual(got, []int{2, 1}) {
		t.Fatalf("FindCores(2, 0) = %v, want [2 1]", got)
	}
}
