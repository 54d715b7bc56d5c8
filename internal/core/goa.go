package core

import (
	"sort"
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/predict"
	"smartoclock/internal/timeseries"
)

// ServerProfile is what each sOA periodically reports to the gOA: its power
// template, its overclock template and its per-core overclock power cost.
type ServerProfile struct {
	// Power is the server's power template (draw including any overclock
	// power it ran with).
	Power *timeseries.WeekTemplate
	// OC is the overclock template: requested/granted cores per slot.
	OC *predict.OCTemplate
	// OCCoreCost is the modeled extra watts per overclocked core at high
	// utilization, used to separate regular from overclock power.
	OCCoreCost float64
}

// GOA is the Global Overclocking Agent for one rack: it aggregates server
// profiles and splits the rack power limit into heterogeneous per-server
// budgets (§IV-C).
type GOA struct {
	rack     string
	limit    float64
	profiles map[string]ServerProfile

	// obs, when non-nil, holds resolved metric handles (see Instrument in
	// obs.go).
	obs *goaObs

	// prov, when non-nil, receives budget-broadcast provenance records;
	// lastProfileSpan is the most recent profile message that shaped them
	// (see provenance.go).
	prov            *causal.Recorder
	lastProfileSpan causal.SpanID
}

// NewGOA creates a gOA for the named rack with the given power limit.
func NewGOA(rack string, limitWatts float64) *GOA {
	return &GOA{rack: rack, limit: limitWatts, profiles: make(map[string]ServerProfile)}
}

// Rack returns the rack name.
func (g *GOA) Rack() string { return g.rack }

// Limit returns the rack power limit in watts.
func (g *GOA) Limit() float64 { return g.limit }

// SetLimit updates the rack power limit (e.g. for power-constrained
// experiments).
func (g *GOA) SetLimit(watts float64) { g.limit = watts }

// SetProfile installs or replaces a server's reported profile.
func (g *GOA) SetProfile(server string, p ServerProfile) {
	g.profiles[server] = p
}

// Servers returns the profiled server names, sorted for determinism.
func (g *GOA) Servers() []string {
	names := make([]string, 0, len(g.profiles))
	for name := range g.profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BudgetsAt computes the heterogeneous per-server power budgets for the
// time-of-day of ts, in three phases (§IV-C):
//
//  1. separate each server's template power into regular and overclock
//     portions using the granted-core counts from its overclock template;
//  2. assign each server its regular power as the initial budget;
//  3. split the remaining rack headroom in proportion to each server's
//     overclock need (requested cores × per-core cost).
//
// When the regular power alone exceeds the limit, budgets are scaled down
// proportionally. With no overclock demand anywhere the headroom is split
// evenly (the fair-share fallback).
func (g *GOA) BudgetsAt(ts time.Time) map[string]float64 {
	names := g.Servers()
	n := len(names)
	if n == 0 {
		return nil
	}
	// Racks hold a few dozen servers; the stack buffer keeps the per-tick
	// callers (zoo, chaos, live, the invariant battery) at the allocations
	// of the names and the returned map.
	var stack [3 * 32]float64
	buf := stack[:]
	if 3*n > len(buf) {
		buf = make([]float64, 3*n)
	}
	regular, need, budgets := buf[:n], buf[n:2*n], buf[2*n:3*n]
	for i, name := range names {
		p := g.profiles[name]
		total := 0.0
		if p.Power != nil {
			total = p.Power.At(ts)
		}
		regular[i], need[i] = p.regularAndNeed(total, p.OC.GrantedAt(ts), p.OC.RequestedAt(ts))
	}
	g.split(regular, need, budgets)
	out := make(map[string]float64, n)
	for i, name := range names {
		out[name] = budgets[i]
	}
	return out
}

// regularAndNeed is phase 1 for one server: from its template power and
// its granted and requested overclock cores at one slot, the server's
// regular (non-overclock) power and its overclock need in watts.
func (p ServerProfile) regularAndNeed(total, granted, requested float64) (regular, need float64) {
	regular = total - granted*p.OCCoreCost
	if regular < 0 {
		regular = 0
	}
	need = requested * p.OCCoreCost
	if need < 0 {
		need = 0
	}
	return regular, need
}

// split is phases 2 and 3: given each server's regular power and overclock
// need (servers in name order), it writes their budgets into budgets and
// records the computation.
func (g *GOA) split(regular, need, budgets []float64) {
	var sumRegular, sumNeed float64
	for i := range regular {
		sumRegular += regular[i]
		sumNeed += need[i]
	}
	n := float64(len(regular))
	if sumRegular >= g.limit {
		// No headroom: scale regular demand into the limit.
		for i := range budgets {
			if sumRegular > 0 {
				budgets[i] = g.limit * regular[i] / sumRegular
			} else {
				budgets[i] = g.limit / n
			}
		}
		g.obsBudgets(g.limit)
		return
	}
	headroom := g.limit - sumRegular
	sum := 0.0
	for i := range budgets {
		extra := headroom / n
		if sumNeed > 0 {
			extra = headroom * need[i] / sumNeed
		}
		budgets[i] = regular[i] + extra
		sum += budgets[i]
	}
	g.obsBudgets(sum)
}

// BudgetTemplates evaluates the budget split across every time-of-day slot
// of a reference Monday and Saturday and returns one budget WeekTemplate
// per server — the artifact the gOA pushes to each sOA on the (e.g.
// weekly) assignment cadence. step is the slot width, typically the profile
// recording step. Slot i of each template equals BudgetsAt at the reference
// day plus i×step.
//
// The names are sorted once and the split runs over slices. Profile
// templates laid out at step are read slot by slot; any other layout falls
// back to At, so the cost is O(slots × servers) with no per-slot
// allocation.
func (g *GOA) BudgetTemplates(step time.Duration) map[string]*timeseries.WeekTemplate {
	names := g.Servers()
	n := len(names)
	if n == 0 {
		return nil
	}
	slots := int(24 * time.Hour / step)
	if slots < 1 {
		slots = 1
	}
	profiles := make([]ServerProfile, n)
	tpls := make([]*timeseries.WeekTemplate, n)
	out := make(map[string]*timeseries.WeekTemplate, n)
	for i, name := range names {
		profiles[i] = g.profiles[name]
		tpls[i] = &timeseries.WeekTemplate{
			Weekday: &timeseries.DayTemplate{Step: step, Kind: timeseries.Weekdays, Slots: make([]float64, slots)},
			Weekend: &timeseries.DayTemplate{Step: step, Kind: timeseries.Weekends, Slots: make([]float64, slots)},
		}
		out[name] = tpls[i]
	}
	buf := make([]float64, 3*n)
	regular, need, budgets := buf[:n], buf[n:2*n], buf[2*n:3*n]
	// Reference days: a Monday and a Saturday (any instances work — only
	// time-of-day and weekday-kind matter).
	days := [2]struct {
		ref     time.Time
		weekend bool
	}{
		{time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC), false},
		{time.Date(2023, 4, 15, 0, 0, 0, 0, time.UTC), true},
	}
	for i := 0; i < slots; i++ {
		for _, d := range days {
			at := slotReader{ts: d.ref.Add(time.Duration(i) * step), weekend: d.weekend, slot: i, step: step, slots: slots}
			for s, p := range profiles {
				var granted, requested float64
				if p.OC != nil {
					granted, requested = at.value(p.OC.Granted), at.value(p.OC.Requested)
				}
				regular[s], need[s] = p.regularAndNeed(at.value(p.Power), granted, requested)
			}
			g.split(regular, need, budgets)
			for s, tpl := range tpls {
				day := tpl.Weekday
				if d.weekend {
					day = tpl.Weekend
				}
				day.Slots[i] = budgets[s]
			}
		}
	}
	return out
}

// slotReader reads week templates at one reference instant ts: slot slot
// of a weekday or weekend day laid out as slots slots of width step.
type slotReader struct {
	ts      time.Time
	weekend bool
	slot    int
	step    time.Duration
	slots   int
}

// value returns w.At(r.ts), or 0 for a nil template. When w's day template
// has the reader's layout, the slot is read directly: r.ts then sits
// exactly slot×step past midnight, and a whole-second step keeps At's
// second-resolution slot lookup on the same slot.
func (r slotReader) value(w *timeseries.WeekTemplate) float64 {
	if w == nil {
		return 0
	}
	day := w.Weekday
	if r.weekend {
		day = w.Weekend
	}
	if day != nil && day.Step == r.step && len(day.Slots) == r.slots && r.step%time.Second == 0 {
		return day.Slots[r.slot]
	}
	return w.At(r.ts)
}

// EvenShare returns the fair-share budget: limit divided by the number of
// profiled servers (or the provided count when no profiles exist yet).
func (g *GOA) EvenShare(fallbackServers int) float64 {
	n := len(g.profiles)
	if n == 0 {
		n = fallbackServers
	}
	if n <= 0 {
		return g.limit
	}
	return g.limit / float64(n)
}

// DatacenterAgent applies the same heterogeneous three-phase split one
// level up the power-delivery hierarchy (§II): a datacenter (or row)
// budget is divided across rack limits in proportion to each rack's
// regular draw and overclocking demand. The algorithm composes — the
// resulting rack limits feed each rack's gOA, whose per-server budgets
// again sum to its (new) limit.
type DatacenterAgent struct {
	goa *GOA
}

// NewDatacenterAgent creates an agent managing budgetWatts across racks.
func NewDatacenterAgent(name string, budgetWatts float64) *DatacenterAgent {
	return &DatacenterAgent{goa: NewGOA(name, budgetWatts)}
}

// SetRackProfile installs one rack's aggregate profile: its power template
// (sum of server templates or the rack recorder) and overclock template
// (summed requested/granted cores), with the fleet's per-core cost.
func (d *DatacenterAgent) SetRackProfile(rack string, p ServerProfile) {
	d.goa.SetProfile(rack, p)
}

// RackLimitsAt returns the heterogeneous rack power limits for the
// time-of-day of ts.
func (d *DatacenterAgent) RackLimitsAt(ts time.Time) map[string]float64 {
	return d.goa.BudgetsAt(ts)
}

// Budget returns the managed datacenter budget in watts.
func (d *DatacenterAgent) Budget() float64 { return d.goa.Limit() }
