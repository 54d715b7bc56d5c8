package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"smartoclock/internal/baselines"
	"smartoclock/internal/experiment"
	"smartoclock/internal/parallel"
	"smartoclock/internal/policy"
	"smartoclock/internal/trace"
)

// timedWorkers is the worker count of every timed and traced operation.
// With one worker the simulation does not compete with the collector and
// other tenants for a small host's CPUs, and runtime/metrics allocation
// deltas belong to the one goroutine doing the work. GOMAXPROCS is at
// least 1, so no run asks for parallelism the host cannot give.
const timedWorkers = 1

// Reference seeds: the dev seed the benchmark was written against and a
// held-out seed. Their digests are pinned in reference.json and checked at
// set-up on every run.
var referenceSeeds = []int64{1, 97}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// timed is the measured operation for a seed.
	timed func(seed int64) (opResult, error)
	// reference is a small shape of the same code path whose digest is
	// pinned for the reference seeds.
	reference func(seed int64) (opResult, error)
	// baseline is the untraced operation a traced run is compared against:
	// same simulated work, so digests must match and the wall-time ratio
	// is the tracing overhead.
	baseline func(seed int64) (opResult, error)
	// traced runs the traced driver.
	traced func(seed int64) (traceRun, error)
	// extra, when set, measures layer figures that need their own runs
	// (the observation layer's cost) once per traced invocation. It
	// returns the figures and a description of each failed check.
	extra func(seed int64) (map[string]float64, []string, error)
}

// traceRun is the outcome of one traced operation.
type traceRun struct {
	digest string
	values map[string]float64
	tracer *Tracer
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func allWorkloads() []*workload {
	return []*workload{
		fleetWorkload("fleet-day", 16, 1, 2),
		fleetWorkload("fleet-week", 8, 8, 1),
		table1Workload(),
		zooWorkload(),
	}
}

// Fleet workloads: experiment.RunFleetScale under SmartOClock at the
// paper's 28 servers per rack, 2 training days.

const (
	serversPerRack = 28
	fleetTrainDays = 2
)

func scaleConfig(seed int64, racks, evalDays int) experiment.ScaleConfig {
	cfg := experiment.DefaultScaleConfig(racks)
	cfg.Seed = seed
	cfg.ServersPerRack = serversPerRack
	cfg.TrainDays = fleetTrainDays
	cfg.EvalDays = evalDays
	cfg.Workers = timedWorkers
	return cfg
}

func fleetDigest(requests, successes, caps int) string {
	return fmt.Sprintf("requests=%d successes=%d cap_events=%d", requests, successes, caps)
}

func runFleet(seed int64, racks, evalDays int) (opResult, error) {
	cfg := scaleConfig(seed, racks, evalDays)
	res, err := experiment.RunFleetScale(cfg)
	if err != nil {
		return opResult{}, err
	}
	ticks := evalDays * int(24*time.Hour/cfg.Step)
	out := opResult{
		racks:       racks,
		serverTicks: float64(racks*res.ServersPerRack) * float64(ticks),
		digest:      fleetDigest(res.Requests, res.Successes, res.CapEvents),
		checked:     1,
	}
	if res.Requests <= 0 || res.Successes > res.Requests {
		out.failed = 1
	}
	return out, nil
}

func fleetWorkload(name string, racks, evalDays, refRacks int) *workload {
	timed := func(seed int64) (opResult, error) { return runFleet(seed, racks, evalDays) }
	return &workload{
		name:      name,
		timed:     timed,
		reference: func(seed int64) (opResult, error) { return runFleet(seed, refRacks, evalDays) },
		baseline:  timed,
		traced: func(seed int64) (traceRun, error) {
			return tracedFleet(scaleConfig(seed, racks, evalDays))
		},
	}
}

// fleetSimConfig is the simulation config RunFleetScale derives from cfg.
func fleetSimConfig(cfg experiment.ScaleConfig) (experiment.FleetSimConfig, trace.FleetConfig) {
	fs := experiment.DefaultFleetSimConfig()
	fs.Seed = cfg.Seed
	fs.TrainDays = cfg.TrainDays
	fs.EvalDays = cfg.EvalDays
	fs.Workers = cfg.Workers
	fcfg := trace.DefaultFleetConfig(fleetStart, time.Duration(cfg.TrainDays+cfg.EvalDays)*24*time.Hour)
	fcfg.Seed = cfg.Seed
	fcfg.Regions = []string{"Scale"}
	fcfg.RacksPerRegion = cfg.Racks
	fcfg.Step = fs.Step
	fcfg.RackTemplate.Servers = cfg.ServersPerRack
	return fs, fcfg
}

// tracedFleet runs RunFleetScale's racks through the traced rack driver.
func tracedFleet(cfg experiment.ScaleConfig) (traceRun, error) {
	fs, fcfg := fleetSimConfig(cfg)
	tr := NewTracer()
	var out rackOutcome
	op := tr.Begin("experiment.fleet")
	for i := 0; i < cfg.Racks; i++ {
		r := tr.Begin("experiment.rack")
		g := tr.Begin("trace.gen")
		fr, err := trace.GenFleetRack(fcfg, i)
		tr.End(g)
		if err != nil {
			return traceRun{}, err
		}
		out.accumulate(tracedRack(tr, r, fr.RackTrace, baselines.SmartOClock, fs))
		tr.End(r)
	}
	tr.End(op)
	return traceRun{
		digest: fleetDigest(out.requests, out.successes, out.caps),
		values: rackLayerValues(tr, out),
		tracer: tr,
	}, nil
}

// rackLayerValues turns the traced rack driver's spans and counters into
// per-layer metrics.
func rackLayerValues(tr *Tracer, out rackOutcome) map[string]float64 {
	tot := tr.Totals()
	sec := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += tot[n].Busy
		}
		return d.Seconds()
	}
	self := func(name string) float64 { return tot[name].Self.Seconds() }
	calls := func(name string) float64 { return float64(tot[name].Calls) }
	mb := func(names ...string) float64 {
		var b int64
		for _, n := range names {
			b += tot[n].SelfAlloc
		}
		return float64(b) / 1e6
	}
	v := map[string]float64{
		"trace.gen_s":              sec("trace.gen"),
		"trace.gen_calls":          calls("trace.gen"),
		"trace.demand_s":           sec("trace.demand"),
		"trace.utilat_calls":       float64(out.utilCalls),
		"trace.alloc_mb":           mb("trace.gen", "trace.demand"),
		"predict.fit_s":            sec("predict.fit"),
		"predict.fit_calls":        calls("predict.fit"),
		"predict.alloc_mb":         mb("predict.fit"),
		"core.goa_budget_s":        sec("core.goa_budget"),
		"core.goa_budget_calls":    calls("core.goa_budget"),
		"core.soa_tick_s":          sec("core.soa_tick"),
		"core.soa_ticks":           calls("core.soa_tick"),
		"core.soa_request_s":       sec("core.soa_request"),
		"core.soa_requests":        calls("core.soa_request"),
		"core.soa_stop_s":          sec("core.soa_stop"),
		"core.soa_rack_event_s":    sec("core.soa_rack_event"),
		"core.alloc_mb":            mb("core.goa_budget", "core.soa_tick", "core.soa_request", "core.soa_stop", "core.soa_rack_event"),
		"lifetime.advance_s":       sec("lifetime.advance"),
		"lifetime.advance_calls":   calls("lifetime.advance"),
		"lifetime.alloc_mb":        mb("lifetime.advance"),
		"power.rack_tick_s":        self("power.rack_tick"),
		"power.rack_ticks":         calls("power.rack_tick"),
		"power.cap_events":         float64(out.caps),
		"power.warnings":           float64(out.warnings),
		"power.alloc_mb":           mb("power.rack_tick"),
		"experiment.driver_self_s": self("experiment.fleet") + self("experiment.table1") + self("experiment.rack") + self("experiment.shard"),
		"experiment.alloc_mb":      mb("experiment.fleet", "experiment.table1", "experiment.rack", "experiment.shard"),
	}
	if out.reqCalls > 0 {
		v["core.soa_grant_ratio"] = float64(out.grants) / float64(out.reqCalls)
	}
	return v
}

// Table I workload: experiment.RunTable1Observed, all five systems across
// the three power classes, 3 racks per class (45 shards), with the fleet
// workloads' windows (2 training + 1 evaluated day). socsim's default of 6
// racks per class over 7 + 5 days takes about 20 s per operation on one core,
// which leaves no room for repetitions and their median.

const (
	table1RacksPerClass = 3
	table1TrainDays     = 2
	table1EvalDays      = 1
)

func table1Config(seed int64, racksPerClass, trainDays, evalDays int) experiment.FleetSimConfig {
	cfg := experiment.DefaultFleetSimConfig()
	cfg.Seed = seed
	cfg.RacksPerClass = racksPerClass
	cfg.TrainDays = trainDays
	cfg.EvalDays = evalDays
	cfg.Workers = timedWorkers
	return cfg
}

var table1Classes = []trace.ClusterClass{trace.HighPower, trace.MediumPower, trace.LowPower}

func table1Shape(cfg experiment.FleetSimConfig) (racks int, serverTicks float64) {
	racks = len(table1Classes) * len(baselines.All()) * cfg.RacksPerClass
	ticks := cfg.EvalDays * int(24*time.Hour/cfg.Step)
	return racks, float64(racks*serversPerRack) * float64(ticks)
}

func table1RowsDigest(rows []experiment.Table1Row) string {
	var b strings.Builder
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, r := range rows {
		fmt.Fprintf(&b, "%s/%s caps=%d norm_caps=%s success=%s penalty=%s perf=%s requests=%d racks=%d\n",
			r.Class, r.System, r.CapEvents, g(r.NormCaps), g(r.SuccessPct), g(r.PenaltyPct), g(r.NormPerf), r.Requests, r.RacksTested)
	}
	return b.String()
}

// paperNormPerf is Table I's Norm.perf column from the paper, as quoted in
// EXPERIMENTS.md, for the classes it gives per system (Low-Power is given
// only as a range).
var paperNormPerf = map[string]float64{
	"High-Power/Central": 1.186, "High-Power/NaiveOClock": 0.963, "High-Power/NoFeedback": 1.122,
	"High-Power/NoWarning": 1.081, "High-Power/SmartOClock": 1.164,
	"Medium-Power/Central": 1.195, "Medium-Power/NaiveOClock": 1.022, "Medium-Power/NoFeedback": 1.163,
	"Medium-Power/NoWarning": 1.160, "Medium-Power/SmartOClock": 1.185,
}

// normPerfMAE is the mean absolute error of the rows' Norm.perf against
// the paper's, over the rows the paper gives.
func normPerfMAE(rows []experiment.Table1Row) float64 {
	sum, n := 0.0, 0
	for _, r := range rows {
		if want, ok := paperNormPerf[r.Class.String()+"/"+r.System.String()]; ok {
			sum += math.Abs(r.NormPerf - want)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func runTable1Observed(cfg experiment.FleetSimConfig) (opResult, error) {
	_, rows, ob, err := experiment.RunTable1Observed(cfg)
	if err != nil {
		return opResult{}, err
	}
	racks, st := table1Shape(cfg)
	return opResult{
		racks:       racks,
		serverTicks: st,
		digest: table1RowsDigest(rows) + fmt.Sprintf("provenance_records=%d events=%d series=%d\n",
			len(ob.Provenance.Records), ob.Trace.Len(), len(ob.Metrics.Series)),
		checked: 1,
		info: fmt.Sprintf("table1_normperf_mae %.6g (simulated; Norm.perf error against the paper's Table I, not validated against hardware)",
			normPerfMAE(rows)),
		keep: ob,
	}, nil
}

func runTable1Plain(cfg experiment.FleetSimConfig) (opResult, error) {
	_, rows, err := experiment.RunTable1(cfg)
	if err != nil {
		return opResult{}, err
	}
	racks, st := table1Shape(cfg)
	return opResult{racks: racks, serverTicks: st, digest: table1RowsDigest(rows), checked: 1, keep: rows}, nil
}

func table1Workload() *workload {
	timedCfg := func(seed int64) experiment.FleetSimConfig {
		return table1Config(seed, table1RacksPerClass, table1TrainDays, table1EvalDays)
	}
	return &workload{
		name:  "table1-observed",
		timed: func(seed int64) (opResult, error) { return runTable1Observed(timedCfg(seed)) },
		reference: func(seed int64) (opResult, error) {
			return runTable1Observed(table1Config(seed, 1, 1, 1))
		},
		baseline: func(seed int64) (opResult, error) { return runTable1Plain(timedCfg(seed)) },
		traced:   func(seed int64) (traceRun, error) { return tracedTable1(timedCfg(seed)) },
		extra:    func(seed int64) (map[string]float64, []string, error) { return observationLayer(timedCfg(seed)) },
	}
}

// tracedTable1 runs RunTable1's shards — every (class, system, rack) — in
// shard order through the traced rack driver and folds them into Table I
// rows exactly as the simulator does.
func tracedTable1(cfg experiment.FleetSimConfig) (traceRun, error) {
	systems := baselines.All()
	tr := NewTracer()
	var total rackOutcome
	cells := make([]rackOutcome, len(table1Classes)*len(systems))
	op := tr.Begin("experiment.table1")
	for ci, class := range table1Classes {
		fcfg := trace.DefaultFleetConfig(fleetStart, time.Duration(cfg.TrainDays+cfg.EvalDays)*24*time.Hour)
		fcfg.Seed = cfg.Seed + int64(ci)
		fcfg.Regions = []string{"SimRegion"}
		fcfg.RacksPerRegion = cfg.RacksPerClass
		fcfg.Step = cfg.Step
		fcfg.ClassMix = map[trace.ClusterClass]float64{class: 1}
		for si, sys := range systems {
			for ri := 0; ri < cfg.RacksPerClass; ri++ {
				s := tr.Begin("experiment.shard")
				g := tr.Begin("trace.gen")
				fr, err := trace.GenFleetRack(fcfg, ri)
				tr.End(g)
				if err != nil {
					return traceRun{}, err
				}
				o := tracedRack(tr, s, fr.RackTrace, sys, cfg)
				tr.End(s)
				cells[ci*len(systems)+si].accumulate(o)
				total.accumulate(o)
			}
		}
	}
	tr.End(op)

	var rows []experiment.Table1Row
	for ci, class := range table1Classes {
		centralCaps := 0
		start := len(rows)
		for si, sys := range systems {
			agg := cells[ci*len(systems)+si]
			row := experiment.Table1Row{System: sys, Class: class, CapEvents: agg.caps,
				Requests: agg.requests, RacksTested: cfg.RacksPerClass}
			if agg.requests > 0 {
				row.SuccessPct = 100 * float64(agg.successes) / float64(agg.requests)
			}
			if agg.penaltyN > 0 {
				row.PenaltyPct = 100 * agg.penaltySum / float64(agg.penaltyN)
			}
			if agg.perfN > 0 {
				row.NormPerf = agg.perfSum / float64(agg.perfN)
			}
			if sys == baselines.Central {
				centralCaps = agg.caps
			}
			rows = append(rows, row)
		}
		denom := centralCaps
		if denom < 1 {
			denom = 1
		}
		for i := start; i < len(rows); i++ {
			rows[i].NormCaps = float64(rows[i].CapEvents) / float64(denom)
		}
	}

	v := rackLayerValues(tr, total)
	var shardMS []float64
	for _, s := range tr.Spans() {
		if s.Name == "experiment.shard" {
			shardMS = append(shardMS, float64(s.Busy)/1e6)
		}
	}
	sum := Summarize(shardMS)
	v["parallel.shards"] = float64(sum.N)
	v["parallel.shard_ms_p50"] = sum.Median
	v["parallel.shard_ms_max"] = sum.Max
	v["parallel.effective_parallelism"] = effectiveParallelism(shardMS, runtime.GOMAXPROCS(0))
	return traceRun{digest: table1RowsDigest(rows), values: v, tracer: tr}, nil
}

// effectiveParallelism is the parallelism workers would reach on these
// shard durations under parallel.Map's dispatch (each free worker takes the
// next shard in index order): total shard time over the resulting makespan.
// A straggler at the end of the list pulls it below the worker count.
func effectiveParallelism(shardDur []float64, workers int) float64 {
	if len(shardDur) == 0 || workers < 1 {
		return 0
	}
	free := make([]float64, workers)
	total := 0.0
	for _, d := range shardDur {
		k := 0
		for i := range free {
			if free[i] < free[k] {
				k = i
			}
		}
		free[k] += d
		total += d
	}
	makespan := 0.0
	for _, f := range free {
		makespan = math.Max(makespan, f)
	}
	if makespan == 0 {
		return 0
	}
	return total / makespan
}

// observationLayer measures what observation costs on the Table I shape:
// one RunTable1Observed against the plain run's wall time, plus the sizes
// of what it recorded. The observed rows must equal the plain ones (zero
// observer effect); a difference is reported as a failed check.
func observationLayer(cfg experiment.FleetSimConfig) (map[string]float64, []string, error) {
	plain, plainCost, err := measure(func() (opResult, error) { return runTable1Plain(cfg) })
	if err != nil {
		return nil, nil, err
	}
	var rows []experiment.Table1Row
	var ob *experiment.FleetObservation
	_, cost, err := measure(func() (opResult, error) {
		var err error
		_, rows, ob, err = experiment.RunTable1Observed(cfg)
		return opResult{}, err
	})
	if err != nil {
		return nil, nil, err
	}
	var failures []string
	if got := table1RowsDigest(rows); got != plain.digest {
		failures = append(failures, "observed Table I rows differ from the unobserved run")
	}
	t0 := time.Now()
	st := ob.Provenance.Stats()
	statsWall := time.Since(t0)
	return map[string]float64{
		"obs.overhead_frac": cost.wall.Seconds()/plainCost.wall.Seconds() - 1,
		"obs.events":        float64(ob.Trace.Len()),
		"obs.alloc_mb":      (float64(cost.allocBytes) - float64(plainCost.allocBytes)) / 1e6,
		"causal.records":    float64(len(ob.Provenance.Records)),
		"causal.stats_s":    statsWall.Seconds(),
		"causal.messages":   float64(st.Messages),
		"metrics.series":    float64(len(ob.Metrics.Series)),
	}, failures, nil
}

// Zoo workload: experiment.RunZoo, the safe policy catalog crossed with
// the scenario catalog at the default 90 simulated minutes per cell.

func zooConfig(seed int64, duration time.Duration) experiment.ZooConfig {
	cfg := experiment.DefaultZooConfig()
	cfg.Seed = seed
	if duration > 0 {
		cfg.Duration = duration
	}
	cfg.Workers = timedWorkers
	return cfg
}

type zooCell struct {
	f  policy.Factory
	sc trace.ZooScenario
}

// zooCells lists RunZoo's cells in matrix order.
func zooCells(cfg experiment.ZooConfig) []zooCell {
	var cells []zooCell
	for _, sc := range trace.ZooCatalog(cfg.Seed) {
		for _, f := range policy.Factories() {
			cells = append(cells, zooCell{f: f, sc: sc})
		}
	}
	return cells
}

func zooCellLine(c *experiment.ZooCellResult) string {
	return fmt.Sprintf("%s/%s ticks=%d requests=%d granted=%d warnings=%d caps=%d audits=%d checks=%d violations=%d\n",
		c.Scenario, c.Policy, c.Ticks, c.Requests, c.Granted, c.Warnings, c.CapEvents,
		c.AdmissionAudits, c.InvariantChecks, len(c.Violations))
}

// zooOutcome folds cell results into an opResult; a cell with violations
// or an error is a failed check.
func zooOutcome(cells []zooCell, results []*experiment.ZooCellResult) opResult {
	var out opResult
	var b strings.Builder
	for i, c := range results {
		sc := cells[i].sc
		out.racks += sc.Racks
		out.serverTicks += float64(c.Ticks * sc.Racks * sc.ServersPerRack)
		b.WriteString(zooCellLine(c))
		out.checked++
		if len(c.Violations) > 0 || c.Err != nil {
			out.failed++
		}
	}
	out.digest = b.String()
	return out
}

func runZoo(cfg experiment.ZooConfig) (opResult, error) {
	res, err := experiment.RunZoo(cfg)
	if err != nil {
		return opResult{}, err
	}
	results := make([]*experiment.ZooCellResult, len(res.Cells))
	for i := range res.Cells {
		results[i] = &res.Cells[i]
	}
	out := zooOutcome(zooCells(cfg), results)
	out.keep = res
	return out, nil
}

func zooWorkload() *workload {
	timed := func(seed int64) (opResult, error) { return runZoo(zooConfig(seed, 0)) }
	return &workload{
		name:      "zoo",
		timed:     timed,
		reference: func(seed int64) (opResult, error) { return runZoo(zooConfig(seed, 10*time.Minute)) },
		baseline:  timed,
		traced:    func(seed int64) (traceRun, error) { return tracedZoo(zooConfig(seed, 0)) },
	}
}

// tracedZoo runs the zoo's cells serially with a span per cell.
func tracedZoo(cfg experiment.ZooConfig) (traceRun, error) {
	if err := cfg.Validate(); err != nil {
		return traceRun{}, err
	}
	cells := zooCells(cfg)
	tr := NewTracer()
	results := make([]*experiment.ZooCellResult, len(cells))
	op := tr.Begin("experiment.zoo")
	for i, c := range cells {
		s := tr.Begin("experiment.zoo_cell")
		results[i] = experiment.RunZooCell(cfg, c.f, c.sc, parallel.ChildSeed(cfg.Seed, uint64(i)))
		tr.End(s)
	}
	tr.End(op)

	var cellMS []float64
	var cellAlloc uint64
	for _, s := range tr.Spans() {
		if s.Name == "experiment.zoo_cell" {
			cellMS = append(cellMS, float64(s.Busy)/1e6)
			cellAlloc += s.AllocBytes
		}
	}
	var requests, granted, caps, warnings, messages int
	var checks int64
	for _, c := range results {
		requests += c.Requests
		granted += c.Granted
		caps += c.CapEvents
		warnings += c.Warnings
		checks += c.InvariantChecks
		messages += c.Provenance.Stats().Messages
	}
	sum := Summarize(cellMS)
	v := map[string]float64{
		"experiment.zoo_cells":       float64(sum.N),
		"experiment.zoo_cell_ms_p50": sum.Median,
		"experiment.zoo_cell_ms_max": sum.Max,
		"experiment.alloc_mb":        float64(cellAlloc) / 1e6,
		"experiment.driver_self_s":   SelfTimes(tr.Spans())[op].Seconds(),
		"invariant.checks":           float64(checks),
		"causal.messages":            float64(messages),
		"power.cap_events":           float64(caps),
		"power.warnings":             float64(warnings),
	}
	if requests > 0 {
		v["core.soa_grant_ratio"] = float64(granted) / float64(requests)
	}
	return traceRun{digest: zooOutcome(cells, results).digest, values: v, tracer: tr}, nil
}
