package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"smartoclock/internal/stats"
	"smartoclock/internal/timeseries"
)

// refGenRack is the per-tick reference model of GenRack: every VM's
// utilization is evaluated with UtilAt at every tick, as the generator did
// before the calendar. GenRack must reproduce it bit for bit.
func refGenRack(cfg RackGenConfig, rng *rand.Rand) (*RackTrace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	steps := int(cfg.Duration / cfg.Step)
	rack := &RackTrace{Name: cfg.Name}
	outlierDay := -1
	if rng.Float64() < cfg.OutlierDayProb {
		days := int(cfg.Duration / (24 * time.Hour))
		if cfg.OutlierWithinDays > 0 && days > cfg.OutlierWithinDays {
			days = cfg.OutlierWithinDays
		}
		if days > 0 {
			outlierDay = rng.Intn(days)
		}
	}
	for i := 0; i < cfg.Servers; i++ {
		spec := GenServerSpec(cfg, fmt.Sprintf("%s-s%02d", cfg.Name, i), rng)
		util := timeseries.New(cfg.Start, cfg.Step)
		power := timeseries.New(cfg.Start, cfg.Step)
		for j := 0; j < steps; j++ {
			ts := cfg.Start.Add(time.Duration(j) * cfg.Step)
			u := spec.UtilAt(ts, rng)
			if outlierDay >= 0 && int(ts.Sub(cfg.Start)/(24*time.Hour)) == outlierDay {
				u *= 1 + cfg.OutlierBoost
				if u > 1 {
					u = 1
				}
			}
			util.Append(u)
			power.Append(spec.PowerAt(u))
		}
		rack.Servers = append(rack.Servers, &ServerTrace{Spec: spec, Util: util, Power: power})
	}
	rack.LimitWatts = stats.P99(rack.RackPower().Values) / cfg.TargetP99Util
	return rack, nil
}

// calendarShape is one generation window the calendar must handle.
type calendarShape struct {
	name  string
	start time.Time
	step  time.Duration
	days  int
}

// calendarShapes covers aligned and unaligned steps, an off-minute start,
// a half-hour zone offset and, when the zone database has it, a
// daylight-saving change.
func calendarShapes(t *testing.T) []calendarShape {
	shapes := []calendarShape{
		{"5min", genStart, 5 * time.Minute, 3},
		{"5min-week", genStart.Add(-48 * time.Hour), 5 * time.Minute, 9},
		{"7min", genStart, 7 * time.Minute, 3},
		{"start-00:02:30", genStart.Add(2*time.Minute + 30*time.Second), 5 * time.Minute, 3},
		{"fixedzone+05:30", time.Date(2023, 4, 14, 0, 0, 0, 0, time.FixedZone("IST", 5*3600+1800)), 5 * time.Minute, 3},
	}
	if ny, err := time.LoadLocation("America/New_York"); err == nil {
		// Sunday 2023-03-12 02:00 local jumps to 03:00.
		shapes = append(shapes, calendarShape{"new-york-dst", time.Date(2023, 3, 10, 0, 0, 0, 0, ny), 5 * time.Minute, 4})
	} else {
		t.Logf("skipping the DST shape: %v", err)
	}
	return shapes
}

// sameBits reports the first index where two series differ bit for bit.
func sameBits(a, b *timeseries.Series) (int, bool) {
	if a.Len() != b.Len() || !a.Start.Equal(b.Start) || a.Step != b.Step {
		return -1, false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestGenRackMatchesPerTickReference checks GenRack against the per-tick
// reference across window shapes, with the outlier day on and off and
// with noise off: util and power series, specs and the rack limit must be
// byte-identical, which also proves the rng stream is unchanged.
func TestGenRackMatchesPerTickReference(t *testing.T) {
	for _, sh := range calendarShapes(t) {
		for _, outlier := range []bool{false, true} {
			for _, noise := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/outlier=%v/noise=%v", sh.name, outlier, noise), func(t *testing.T) {
					cfg := DefaultRackGenConfig("eq", sh.start, time.Duration(sh.days)*24*time.Hour)
					cfg.Step = sh.step
					cfg.Servers = 6
					cfg.OutlierDayProb = 0
					if outlier {
						cfg.OutlierDayProb = 1
						cfg.OutlierBoost = 0.4
					}
					if !noise {
						cfg.Profiles = append([]ServiceProfile(nil), cfg.Profiles...)
						for i := range cfg.Profiles {
							cfg.Profiles[i].NoiseSD = 0
						}
					}
					got, err := GenRack(cfg, rand.New(rand.NewSource(17)))
					if err != nil {
						t.Fatal(err)
					}
					want, err := refGenRack(cfg, rand.New(rand.NewSource(17)))
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got.LimitWatts) != math.Float64bits(want.LimitWatts) {
						t.Fatalf("limit %v, reference %v", got.LimitWatts, want.LimitWatts)
					}
					for i := range want.Servers {
						g, w := got.Servers[i], want.Servers[i]
						if g.Spec.Name != w.Spec.Name || len(g.Spec.VMs) != len(w.Spec.VMs) {
							t.Fatalf("server %d spec differs", i)
						}
						if j, ok := sameBits(g.Util, w.Util); !ok {
							t.Fatalf("server %d util differs at tick %d", i, j)
						}
						if j, ok := sameBits(g.Power, w.Power); !ok {
							t.Fatalf("server %d power differs at tick %d", i, j)
						}
					}
				})
			}
		}
	}
}

// TestUtilAtIsCleanPlusNoise checks that UtilAt is exactly the clean
// evaluator followed by the noise step, for every pattern (and an unknown
// one), with and without noise, drawing the same randomness.
func TestUtilAtIsCleanPlusNoise(t *testing.T) {
	patterns := []Pattern{PatternDiurnal, PatternBroadPeak, PatternSpiky, PatternConstant, PatternNightly, Pattern(99)}
	for _, pat := range patterns {
		p := ServiceProfile{
			Pattern: pat, BaseUtil: 0.2, PeakUtil: 0.9,
			PeakStartHour: 9, PeakEndHour: 17, SpikeMinutes: 4,
			NoiseSD: 0.3, WeekendFactor: 0.6, PhaseShiftHours: -2.7,
		}
		for _, noise := range []bool{true, false} {
			a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
			if !noise {
				a, b = nil, nil
			}
			for m := 0; m < 7*24*60; m += 13 {
				ts := genStart.Add(time.Duration(m)*time.Minute + 17*time.Second)
				minute, weekend := clockKey(ts)
				got := p.UtilAt(ts, a)
				want := p.WithNoise(p.CleanUtil(minute, weekend), b)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v at %v: UtilAt %v, CleanUtil+WithNoise %v", pat, ts, got, want)
				}
			}
		}
	}
}

// TestCalendarKeys checks that every tick's key decodes to the clock key of
// its own instant, that keys are dense, and that 5-minute calendars stay
// within 576 keys however long they run.
func TestCalendarKeys(t *testing.T) {
	for _, sh := range calendarShapes(t) {
		ticks := int(time.Duration(sh.days) * 24 * time.Hour / sh.step)
		cal := NewCalendar(sh.start, sh.step, ticks)
		if cal.Len() != ticks {
			t.Fatalf("%s: Len %d, want %d", sh.name, cal.Len(), ticks)
		}
		seen := make([]bool, cal.NumKeys())
		for j := 0; j < ticks; j++ {
			k := cal.KeyOf(j)
			seen[k] = true
			gm, gw := cal.Key(k)
			wm, ww := clockKey(sh.start.Add(time.Duration(j) * sh.step))
			if gm != wm || gw != ww {
				t.Fatalf("%s tick %d: key (%d,%v), instant (%d,%v)", sh.name, j, gm, gw, wm, ww)
			}
		}
		for k, ok := range seen {
			if !ok {
				t.Fatalf("%s: key %d never used", sh.name, k)
			}
		}
	}
	if n := NewCalendar(genStart, 5*time.Minute, 6*7*288).NumKeys(); n != 576 {
		t.Fatalf("six-week 5-minute calendar has %d keys, want 576", n)
	}
	if n := NewCalendar(genStart, 5*time.Minute, 0).NumKeys(); n != 0 {
		t.Fatalf("empty calendar has %d keys", n)
	}
}

// TestGenRackAllocsFlatInDays guards the calendar path: beyond the two
// series per server, sized up front, no allocation may be made per tick,
// per key or per day, so the allocation count of a 2-day and a 9-day rack
// must be equal.
func TestGenRackAllocsFlatInDays(t *testing.T) {
	allocs := func(days int) float64 {
		cfg := DefaultRackGenConfig("alloc", genStart, time.Duration(days)*24*time.Hour)
		cfg.Servers = 4
		cfg.OutlierDayProb = 0
		return testing.AllocsPerRun(5, func() {
			if _, err := GenRack(cfg, rand.New(rand.NewSource(1))); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(2), allocs(9); long > short {
		t.Fatalf("GenRack allocations grow with days: 2 days=%.0f, 9 days=%.0f", short, long)
	}
}
