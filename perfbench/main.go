// Command perfbench is the repository's benchmark: it runs one named
// workload of the SmartOClock simulator for a seed, measures host cost end
// to end (or, with -trace 1, per layer from a traced run), checks the
// simulated outputs, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.py from the repository root, which builds it:
//
//	python3 perfbench/run.py --workload fleet-day --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"sim_server_ticks_per_s", "1/s"},
	{"racks_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
	{"alloc_mb_per_rack", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, in print order. A layer that
// does not run in a workload reports zero work.
var perLayer = []metricDef{
	{"trace.gen_s", "s"},
	{"trace.gen_calls", "count"},
	{"trace.demand_s", "s"},
	{"trace.utilat_calls", "count"},
	{"trace.alloc_mb", "MB"},
	{"predict.fit_s", "s"},
	{"predict.fit_calls", "count"},
	{"predict.alloc_mb", "MB"},
	{"core.goa_budget_s", "s"},
	{"core.goa_budget_calls", "count"},
	{"core.soa_tick_s", "s"},
	{"core.soa_ticks", "count"},
	{"core.soa_request_s", "s"},
	{"core.soa_requests", "count"},
	{"core.soa_stop_s", "s"},
	{"core.soa_grant_ratio", "ratio"},
	{"core.soa_rack_event_s", "s"},
	{"core.alloc_mb", "MB"},
	{"lifetime.advance_s", "s"},
	{"lifetime.advance_calls", "count"},
	{"lifetime.alloc_mb", "MB"},
	{"power.rack_tick_s", "s"},
	{"power.rack_ticks", "count"},
	{"power.cap_events", "count"},
	{"power.warnings", "count"},
	{"power.alloc_mb", "MB"},
	{"experiment.driver_self_s", "s"},
	{"experiment.alloc_mb", "MB"},
	{"experiment.zoo_cells", "count"},
	{"experiment.zoo_cell_ms_p50", "ms"},
	{"experiment.zoo_cell_ms_max", "ms"},
	{"parallel.shards", "count"},
	{"parallel.shard_ms_p50", "ms"},
	{"parallel.shard_ms_max", "ms"},
	{"parallel.effective_parallelism", "ratio"},
	{"obs.overhead_frac", "ratio"},
	{"obs.events", "count"},
	{"obs.alloc_mb", "MB"},
	{"causal.records", "count"},
	{"causal.stats_s", "s"},
	{"causal.messages", "count"},
	{"metrics.series", "count"},
	{"invariant.checks", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace_overhead_frac", "ratio"},
}

// setupRounds is how many times a run sets up; setup_s reports the median.
const setupRounds = 3

// minReps is the fewest repetitions a run makes, even past its time
// budget, so every reported median rests on at least three samples.
const minReps = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// checks tallies checked outputs and describes each failure.
type checks struct {
	attempted, failed int
	failures          []string
}

func (c *checks) add(checked, failed int, why string) {
	c.attempted += checked
	c.failed += failed
	if failed > 0 {
		c.failures = append(c.failures, why)
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fleet-day, fleet-week, table1-observed or zoo")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "how long to measure")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spawnNS := fs.Int64("spawn-ns", 0, "Unix time in ns at which the launcher started this process (0: unknown)")
	spanDir := fs.String("span-dir", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	writeRef := fs.String("write-reference", "", "recompute the reference digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mainAt := time.Now()
	if *writeRef != "" {
		if err := writeReferences(*writeRef); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (fleet-day, fleet-week, table1-observed, zoo), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	refs, err := loadReferences()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *traceMode)
	fmt.Fprintf(stdout, "host gomaxprocs=%d nproc=%d go=%s workers=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), timedWorkers)

	var c checks
	setup, err := setUp(w, refs, &c)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	if *spawnNS > 0 {
		if d := mainAt.Sub(time.Unix(0, *spawnNS)); d > 0 {
			setup += d
		}
	}

	budget := time.Duration(*seconds * float64(time.Second))
	var values map[string]float64
	var defs []metricDef
	if *traceMode == 0 {
		defs = endToEnd
		values, err = timedRun(stdout, w, *seed, budget, &c)
		if values != nil {
			values["setup_s"] = setup.Seconds()
		}
	} else {
		defs = perLayer
		values, err = tracedRun(w, *seed, budget, *spanDir, &c)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return report(stdout, stderr, defs, values, &c)
}

// setUp runs setupRounds rounds of the reference checks — the workload's
// code path at a small shape for each reference seed, compared with the
// pinned digests — and returns the median round time. The rounds double as
// warm-up for the timed operations.
func setUp(w *workload, refs references, c *checks) (time.Duration, error) {
	var rounds []float64
	for r := 0; r < setupRounds; r++ {
		start := time.Now()
		for _, seed := range referenceSeeds {
			res, err := w.reference(seed)
			if err != nil {
				return 0, err
			}
			c.add(res.checked, res.failed, fmt.Sprintf("reference %s seed %d: invariant violations", w.name, seed))
			if err := refs.check(w.name, seed, res.digest); err != nil {
				c.add(1, 1, err.Error())
			} else {
				c.add(1, 0, "")
			}
		}
		rounds = append(rounds, time.Since(start).Seconds())
	}
	return time.Duration(Summarize(rounds).Median * float64(time.Second)), nil
}

// timedRun repeats the workload's operation until the budget is spent and
// reports the median of each end-to-end metric. Throughputs are per CPU
// second of the process, which other tenants of a shared host disturb far
// less than wall time. Every repetition must reproduce the first one's
// outputs.
func timedRun(stdout io.Writer, w *workload, seed int64, budget time.Duration, c *checks) (map[string]float64, error) {
	var walls, tickRates, rackRates, peaks, allocs []float64
	first := ""
	start := time.Now()
	for {
		res, cost, err := measure(func() (opResult, error) { return w.timed(seed) })
		if err != nil {
			return nil, err
		}
		why := fmt.Sprintf("%s seed %d: invariant violations or empty output", w.name, seed)
		if first == "" {
			first = res.digest
			if res.info != "" {
				fmt.Fprintln(stdout, "info", res.info)
			}
		} else if res.digest != first {
			res.failed = res.checked
			why = fmt.Sprintf("%s seed %d: repetition %d outputs differ from the first", w.name, seed, len(walls)+1)
		}
		c.add(res.checked, res.failed, why)
		cpu := cost.cpu.Seconds()
		walls = append(walls, cost.wall.Seconds())
		tickRates = append(tickRates, res.serverTicks/cpu)
		rackRates = append(rackRates, float64(res.racks)/cpu)
		peaks = append(peaks, float64(cost.peakHeap)/1e6)
		allocs = append(allocs, float64(cost.allocBytes)/float64(res.racks)/1e6)
		if elapsed := time.Since(start); len(walls) >= minReps && elapsed+cost.wall/2 >= budget {
			break
		}
	}
	values := map[string]float64{}
	for _, m := range []struct {
		name string
		xs   []float64
	}{
		{"wall_s", walls}, {"sim_server_ticks_per_s", tickRates}, {"racks_per_s", rackRates},
		{"peak_heap_mb", peaks}, {"alloc_mb_per_rack", allocs},
	} {
		s := Summarize(m.xs)
		values[m.name] = s.Median
		fmt.Fprintf(stdout, "sample %s n=%d median=%.6g q1=%.6g q3=%.6g max=%.6g\n", m.name, s.N, s.Median, s.Q1, s.Q3, s.Max)
	}
	return values, nil
}

// tracedRun alternates the untraced baseline operation and the traced
// driver until the budget is spent. Layer figures are per-metric medians
// over the traced repetitions; trace_overhead_frac compares the median
// traced and untraced wall times. The traced driver must reproduce the
// baseline's outputs, or its layer figures describe a different run.
func tracedRun(w *workload, seed int64, budget time.Duration, spanDir string, c *checks) (map[string]float64, error) {
	var baseWalls, tracedWalls []float64
	var reps []map[string]float64
	var last *Tracer
	start := time.Now()
	for {
		base, baseCost, err := measure(func() (opResult, error) { return w.baseline(seed) })
		if err != nil {
			return nil, err
		}
		c.add(base.checked, base.failed, fmt.Sprintf("%s seed %d: invariant violations or empty output", w.name, seed))
		var tr traceRun
		var gcCycles uint32
		var gcPause time.Duration
		_, cost, err := measure(func() (opResult, error) {
			cy0, p0 := gcCounters()
			var err error
			tr, err = w.traced(seed)
			cy1, p1 := gcCounters()
			gcCycles, gcPause = cy1-cy0, p1-p0
			return opResult{}, err
		})
		if err != nil {
			return nil, err
		}
		if tr.digest != base.digest {
			c.add(1, 1, fmt.Sprintf("%s seed %d: traced driver outputs differ from the simulator's:\n%s\nvs\n%s", w.name, seed, tr.digest, base.digest))
		} else {
			c.add(1, 0, "")
		}
		tr.values["runtime.gc_cycles"] = float64(gcCycles)
		tr.values["runtime.gc_pause_s"] = gcPause.Seconds()
		reps = append(reps, tr.values)
		last = tr.tracer
		baseWalls = append(baseWalls, baseCost.wall.Seconds())
		tracedWalls = append(tracedWalls, cost.wall.Seconds())
		if elapsed := time.Since(start); len(reps) >= minReps && elapsed+(baseCost.wall+cost.wall)/2 >= budget {
			break
		}
	}
	values := map[string]float64{}
	for _, m := range perLayer {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = r[m.name]
		}
		values[m.name] = Summarize(xs).Median
	}
	values["trace_overhead_frac"] = Summarize(tracedWalls).Median/Summarize(baseWalls).Median - 1
	if w.extra != nil {
		ex, failures, err := w.extra(seed)
		if err != nil {
			return nil, err
		}
		for k, v := range ex {
			values[k] = v
		}
		c.add(1, min(len(failures), 1), strings.Join(failures, "; "))
	}
	if last != nil {
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := last.WriteJSONL(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return values, nil
}

// report prints each metric as a line, then the result object as the last
// line of stdout. Any failed check makes the run incorrect and the exit
// code 1.
func report(stdout, stderr io.Writer, defs []metricDef, values map[string]float64, c *checks) int {
	res := result{Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			c.failures = append(c.failures, fmt.Sprintf("metric %s is not finite", d.name))
			res.Failed++
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %s %.6g %s\n", d.name, v, d.unit)
	}
	res.Correct = res.Failed == 0
	for _, f := range c.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !res.Correct {
		return 1
	}
	return 0
}
