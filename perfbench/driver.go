package main

import (
	"time"

	"smartoclock/internal/baselines"
	"smartoclock/internal/core"
	"smartoclock/internal/experiment"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/power"
	"smartoclock/internal/predict"
	"smartoclock/internal/timeseries"
	"smartoclock/internal/trace"
)

// The traced rack driver: the fleet simulator's per-rack loop rebuilt from
// public calls, with a span around every call into a layer. It must produce
// the same requests, successes and cap events as the simulator for the same
// rack and system; the traced runs check that before reporting any layer
// figure, because layer times from a loop that simulates something else
// would describe nothing.

// fleetStart is the simulator's trace origin: a Monday at midnight, so
// training covers whole weeks and evaluation starts on a Monday.
var fleetStart = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

// rackOutcome is one rack's anchors and Table I sums.
type rackOutcome struct {
	requests, successes, caps, warnings int
	penaltySum, perfSum                 float64
	penaltyN, perfN                     int
	// reqCalls/grants count SOA.Request calls and granted decisions.
	reqCalls, grants int
	// utilCalls counts ServiceProfile.UtilAt evaluations for demand.
	utilCalls int
}

func (o *rackOutcome) accumulate(x rackOutcome) {
	o.requests += x.requests
	o.successes += x.successes
	o.caps += x.caps
	o.warnings += x.warnings
	o.penaltySum += x.penaltySum
	o.penaltyN += x.penaltyN
	o.perfSum += x.perfSum
	o.perfN += x.perfN
	o.reqCalls += x.reqCalls
	o.grants += x.grants
	o.utilCalls += x.utilCalls
}

// fillDemand counts, per tick from start, the cores whose VM's service
// utilization reaches the overclock threshold (user-facing patterns only).
func fillDemand(out []int, st *trace.ServerTrace, cfg experiment.FleetSimConfig, start time.Time, utilCalls *int) []int {
	for t := range out {
		ts := start.Add(time.Duration(t) * cfg.Step)
		demand := 0
		for _, vm := range st.Spec.VMs {
			switch vm.Service.Pattern {
			case trace.PatternSpiky, trace.PatternBroadPeak, trace.PatternDiurnal:
				*utilCalls++
				if vm.Service.UtilAt(ts, nil) >= cfg.OCThreshold {
					demand += vm.Cores
				}
			}
		}
		if demand > st.Spec.HW.Cores {
			demand = st.Spec.HW.Cores
		}
		out[t] = demand
	}
	return out
}

// fitTemplate fits the default daily-median predictor on train and
// materializes it as a week template at the training step.
func fitTemplate(train *timeseries.Series) *timeseries.WeekTemplate {
	p := predict.NewDailyMed()
	p.Fit(train)
	step := train.Step
	slots := int(24 * time.Hour / step)
	if slots < 1 {
		slots = 1
	}
	mk := func(ref time.Time, kind timeseries.DayKind) *timeseries.DayTemplate {
		t := &timeseries.DayTemplate{Step: step, Kind: kind, Slots: make([]float64, slots)}
		for i := range t.Slots {
			t.Slots[i] = p.Predict(ref.Add(time.Duration(i) * step))
		}
		return t
	}
	monday := train.End()
	for monday.Weekday() != time.Monday {
		monday = monday.Add(24 * time.Hour)
	}
	return &timeseries.WeekTemplate{
		Weekday: mk(monday, timeseries.Weekdays),
		Weekend: mk(monday.Add(5*24*time.Hour), timeseries.Weekends),
	}
}

// tracedRack simulates rt under sys for cfg's evaluation window, recording
// layer spans under parent. cfg must use the simulator's defaults for the
// knobs this driver does not model (daily-median templates, no warning or
// exploration overrides, no checkpoints, no observation).
func tracedRack(tr *Tracer, parent int, rt *trace.RackTrace, sys baselines.System, cfg experiment.FleetSimConfig) rackOutcome {
	var out rackOutcome
	evalStart := fleetStart.Add(time.Duration(cfg.TrainDays) * 24 * time.Hour)
	ticks := cfg.EvalDays * int(24*time.Hour/cfg.Step)
	n := len(rt.Servers)

	demandSpan := tr.Agg(parent, "trace.demand")
	fitSpan := tr.Agg(parent, "predict.fit")
	goaSpan := tr.Agg(parent, "core.goa_budget")
	reqSpan := tr.Agg(parent, "core.soa_request")
	stopSpan := tr.Agg(parent, "core.soa_stop")
	tickSpan := tr.Agg(parent, "core.soa_tick")
	lifeSpan := tr.Agg(parent, "lifetime.advance")
	rackSpan := tr.Agg(parent, "power.rack_tick")
	eventSpan := tr.Agg(rackSpan, "core.soa_rack_event")

	hosts := make([]*traceHost, n)
	demands := make([][]int, n)
	servers := make([]power.Server, 0, n)
	for i, st := range rt.Servers {
		hosts[i] = newTraceHost(st)
		servers = append(servers, hosts[i])
		m := tr.MarkAlloc()
		demands[i] = fillDemand(make([]int, ticks), st, cfg, evalStart, &out.utilCalls)
		tr.Add(demandSpan, m)
	}
	rack := power.NewRack(power.DefaultRackConfig(rt.Name, rt.LimitWatts), servers...)

	goa := core.NewGOA(rt.Name, rt.LimitWatts)
	trainScratch := make([]int, cfg.TrainDays*int(24*time.Hour/cfg.Step))
	for _, st := range rt.Servers {
		train := st.Power.Slice(fleetStart, evalStart)
		m := tr.MarkAlloc()
		powerTpl := fitTemplate(train)
		tr.Add(fitSpan, m)
		m = tr.MarkAlloc()
		trainDemand := fillDemand(trainScratch, st, cfg, fleetStart, &out.utilCalls)
		tr.Add(demandSpan, m)
		m = tr.MarkAlloc()
		rec := predict.NewOCRecorder(fleetStart, cfg.Step)
		for _, d := range trainDemand {
			rec.Record(d, 0)
		}
		ocTpl := rec.Template()
		tr.Add(fitSpan, m)
		goa.SetProfile(st.Spec.Name, core.ServerProfile{
			Power:      powerTpl,
			OC:         ocTpl,
			OCCoreCost: st.Spec.HW.OCCoreCost(),
		})
	}
	m := tr.MarkAlloc()
	budgetTpls := goa.BudgetTemplates(cfg.Step)
	tr.Add(goaSpan, m)

	soaBase := core.DefaultSOAConfig()
	soaBase.ProfileStep = cfg.Step
	soaBase.ExploreConfirm = cfg.Step
	soaBase.ExploitTime = 6 * cfg.Step
	soaBase.InitialBackoff = cfg.Step
	soaBase.MaxBackoff = 12 * cfg.Step
	soaBase.ExploreStepWatts = 40
	soaBase.DefaultOCHorizon = 15 * time.Minute
	soaBase.AdmissionUtil = 0.7
	soaBase.BufferWatts = 15
	oracle := func(extra float64) bool { return rack.Power()+extra <= rt.LimitWatts }
	bcfg := lifetime.BudgetConfig{
		Epoch: 7 * 24 * time.Hour, Fraction: cfg.OCBudgetFraction,
		CarryOver: true, MaxCarryOver: 1,
	}
	soas := make([]*core.SOA, n)
	// shadows replay the lifetime ledger's Advance on the sOAs' call
	// sequence: lifetime runs inside SOA.Tick and SOA.Request and cannot be
	// timed from outside, so its cost is measured on identical ledgers
	// advanced at the same instants. That cost is also contained in the
	// core.soa_tick and core.soa_request spans.
	shadows := make([]*lifetime.CoreBudgets, n)
	for i, st := range rt.Servers {
		even := rt.LimitWatts / float64(n)
		if sys == baselines.Central {
			even = 1e9
		}
		soas[i] = core.NewSOA(baselines.SOAConfig(sys, soaBase, oracle), hosts[i],
			lifetime.NewCoreBudgets(bcfg, st.Spec.HW.Cores, evalStart), even, evalStart)
		shadows[i] = lifetime.NewCoreBudgets(bcfg, st.Spec.HW.Cores, evalStart)
		switch sys {
		case baselines.NaiveOClock, baselines.Central:
		default:
			soas[i].SetAssignedBudget(budgetTpls[st.Spec.Name])
		}
		train := st.Power.Slice(fleetStart, evalStart)
		m := tr.MarkAlloc()
		tpl := fitTemplate(train)
		tr.Add(fitSpan, m)
		soas[i].SetPowerTemplate(tpl)
	}

	var now time.Time
	rack.Subscribe(func(ev power.Event) {
		m := tr.MarkAlloc()
		for _, a := range soas {
			a.OnRackEvent(now, ev)
		}
		tr.Add(eventSpan, m)
	})

	trainOffset := cfg.TrainDays * int(24*time.Hour/cfg.Step)
	for t := 0; t < ticks; t++ {
		now = evalStart.Add(time.Duration(t) * cfg.Step)
		for i, st := range rt.Servers {
			idx := trainOffset + t
			if idx >= st.Power.Len() {
				idx = st.Power.Len() - 1
			}
			hosts[i].setTick(st.Power.Values[idx], st.Util.Values[idx])
		}
		for i := range rt.Servers {
			d := demands[i][t]
			sessions := soas[i].Sessions()
			_, active := sessions["oc"]
			prev := 0
			if active {
				prev = len(sessions["oc"].Cores)
			}
			if d != prev {
				if active {
					m := tr.MarkAlloc()
					soas[i].Stop(now, "oc")
					tr.Add(stopSpan, m)
				}
				if d > 0 {
					req := core.Request{VM: "oc", Cores: d, TargetMHz: hosts[i].maxOC, Priority: core.PriorityMetric}
					m := tr.MarkAlloc()
					dec := soas[i].Request(now, req)
					tr.Add(reqSpan, m)
					out.reqCalls++
					if dec.Granted {
						out.grants++
					}
					m = tr.Mark()
					shadows[i].Advance(now)
					tr.Add(lifeSpan, m)
				}
			}
			if d > 0 {
				out.requests++
				if s, ok := soas[i].Sessions()["oc"]; ok && sessionEffectiveRatio(hosts[i], s) > 1 {
					out.successes++
				}
			}
		}
		batch := tr.MarkAlloc()
		for _, a := range soas {
			m := tr.Mark()
			a.Tick(now)
			tr.Add(tickSpan, m)
		}
		tr.AddAlloc(tickSpan, batch)
		for _, sh := range shadows {
			m := tr.Mark()
			sh.Advance(now)
			tr.Add(lifeSpan, m)
		}
		capsBefore := rack.CapEvents()
		m := tr.MarkAlloc()
		rack.Tick(now)
		tr.Add(rackSpan, m)
		capped := rack.CapEvents() > capsBefore
		for i, h := range hosts {
			if demands[i][t] > 0 {
				if s, ok := soas[i].Sessions()["oc"]; ok {
					out.perfSum += sessionEffectiveRatio(h, s)
				} else {
					ceil := h.capCeiling()
					if ceil > h.turbo {
						ceil = h.turbo
					}
					out.perfSum += float64(ceil) / float64(h.turbo)
				}
				out.perfN++
			} else if capped && !h.hasOC() {
				if ceil := h.capCeiling(); ceil < h.turbo {
					out.penaltySum += 1 - float64(ceil)/float64(h.turbo)
					out.penaltyN++
				}
			}
		}
	}
	out.caps = rack.CapEvents()
	out.warnings = rack.Warnings()
	return out
}
