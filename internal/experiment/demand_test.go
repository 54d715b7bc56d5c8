package experiment

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"smartoclock/internal/machine"
	"smartoclock/internal/trace"
)

// refDemand is the per-tick reference model of fillDemand: every VM's
// utilization is evaluated with UtilAt at every tick.
func refDemand(st *trace.ServerTrace, cfg FleetSimConfig, start time.Time, ticks int) []int {
	out := make([]int, ticks)
	for t := range out {
		ts := start.Add(time.Duration(t) * cfg.Step)
		demand := 0
		for _, vm := range st.Spec.VMs {
			switch vm.Service.Pattern {
			case trace.PatternSpiky, trace.PatternBroadPeak, trace.PatternDiurnal:
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

// TestFillDemandMatchesPerTickReference checks the per-key demand table
// against the per-tick reference across window shapes: aligned and
// unaligned steps, an off-minute start, a half-hour zone offset, a
// daylight-saving change, and racks with and without an outlier day and
// noise (neither of which demand may depend on).
func TestFillDemandMatchesPerTickReference(t *testing.T) {
	type shape struct {
		name  string
		start time.Time
		step  time.Duration
		days  int
	}
	shapes := []shape{
		{"5min", fleetStart, 5 * time.Minute, 9},
		{"7min", fleetStart, 7 * time.Minute, 3},
		{"start-00:02:30", fleetStart.Add(2*time.Minute + 30*time.Second), 5 * time.Minute, 3},
		{"fixedzone+05:30", time.Date(2023, 4, 14, 0, 0, 0, 0, time.FixedZone("IST", 5*3600+1800)), 5 * time.Minute, 3},
	}
	if ny, err := time.LoadLocation("America/New_York"); err == nil {
		shapes = append(shapes, shape{"new-york-dst", time.Date(2023, 3, 10, 0, 0, 0, 0, ny), 5 * time.Minute, 4})
	} else {
		t.Logf("skipping the DST shape: %v", err)
	}
	for _, sh := range shapes {
		for _, variant := range []struct {
			outlier, noise bool
		}{{false, true}, {true, true}, {false, false}} {
			t.Run(fmt.Sprintf("%s/outlier=%v/noise=%v", sh.name, variant.outlier, variant.noise), func(t *testing.T) {
				rcfg := trace.DefaultRackGenConfig("dm", sh.start, time.Duration(sh.days)*24*time.Hour)
				rcfg.Step = sh.step
				rcfg.Servers = 8
				rcfg.OutlierDayProb = 0
				if variant.outlier {
					rcfg.OutlierDayProb = 1
				}
				if !variant.noise {
					rcfg.Profiles = append([]trace.ServiceProfile(nil), rcfg.Profiles...)
					for i := range rcfg.Profiles {
						rcfg.Profiles[i].NoiseSD = 0
					}
				}
				rt, err := trace.GenRack(rcfg, rand.New(rand.NewSource(23)))
				if err != nil {
					t.Fatal(err)
				}
				cfg := FleetSimConfig{Step: sh.step, OCThreshold: 0.6}
				ticks := int(time.Duration(sh.days) * 24 * time.Hour / sh.step)
				cal := trace.NewCalendar(sh.start, sh.step, ticks)
				keyDemand := make([]int, cal.NumKeys())
				got := make([]int, ticks)
				busy := 0
				for i, st := range rt.Servers {
					fillDemand(got, st, cfg, cal, keyDemand)
					want := refDemand(st, cfg, sh.start, ticks)
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("server %d tick %d: demand %d, reference %d", i, j, got[j], want[j])
						}
						if got[j] > 0 {
							busy++
						}
					}
				}
				if busy == 0 {
					t.Fatal("no tick demands overclocking: the comparison is vacuous")
				}
			})
		}
	}
}

// TestFillDemandCapsAtServerCores checks the per-server cap, which
// generated specs never reach: a hand-built server whose user-facing VMs
// hold more cores than the machine has.
func TestFillDemandCapsAtServerCores(t *testing.T) {
	hw := machine.DefaultConfig()
	hot := trace.ServiceProfile{Name: "hot", Pattern: trace.PatternDiurnal, BaseUtil: 0.95, PeakUtil: 1, WeekendFactor: 1}
	st := &trace.ServerTrace{Spec: trace.ServerSpec{Name: "over", HW: hw, VMs: []trace.VMSpec{
		{Service: hot, Cores: hw.Cores}, {Service: hot, Cores: 4},
	}}}
	cfg := FleetSimConfig{Step: 5 * time.Minute, OCThreshold: 0.6}
	cal := trace.NewCalendar(fleetStart, cfg.Step, 288)
	got := fillDemand(make([]int, cal.Len()), st, cfg, cal, make([]int, cal.NumKeys()))
	want := refDemand(st, cfg, fleetStart, cal.Len())
	for j := range want {
		if got[j] != want[j] || got[j] != hw.Cores {
			t.Fatalf("tick %d: demand %d, reference %d, cores %d", j, got[j], want[j], hw.Cores)
		}
	}
}
