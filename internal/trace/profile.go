// Package trace generates the synthetic production traces that substitute
// for the paper's 6-week, 7.1k-rack dataset (§III, §V-B).
//
// The generator reproduces the structural properties the paper's analysis
// relies on rather than any particular service's absolute numbers:
//
//   - diurnal, repeatable daily patterns (making per-day templates accurate);
//   - short transient peaks (Services B/C in Fig 1 peak for ~5 minutes at
//     the top and bottom of each hour) and broad multi-hour peaks
//     (Service A peaks 10am–noon);
//   - statistical multiplexing: each server hosts VMs of several services
//     with different peak times, so rack power is smoother than any VM;
//   - heterogeneous per-server power inside a rack (Fig 9);
//   - weekday/weekend structure and occasional outlier days.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Pattern is the temporal shape of a service's load.
type Pattern int

const (
	// PatternDiurnal is a smooth sinusoidal day: low at night, high midday.
	PatternDiurnal Pattern = iota
	// PatternBroadPeak holds base load except for a multi-hour plateau
	// (Service A in Fig 1).
	PatternBroadPeak
	// PatternSpiky holds base load except for short spikes at the top and
	// bottom of each hour (Services B and C in Fig 1).
	PatternSpiky
	// PatternConstant is flat high load (ML training).
	PatternConstant
	// PatternNightly peaks during the night hours (batch workloads),
	// providing anti-correlated multiplexing partners.
	PatternNightly
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case PatternDiurnal:
		return "diurnal"
	case PatternBroadPeak:
		return "broadpeak"
	case PatternSpiky:
		return "spiky"
	case PatternConstant:
		return "constant"
	case PatternNightly:
		return "nightly"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// ServiceProfile describes one service's load shape. Utilization values are
// fractions of the service's VMs' allocated cores.
type ServiceProfile struct {
	Name    string
	Pattern Pattern
	// BaseUtil is the off-peak utilization.
	BaseUtil float64
	// PeakUtil is the on-peak utilization.
	PeakUtil float64
	// PeakStartHour/PeakEndHour bound the broad peak (PatternBroadPeak)
	// and are ignored by every other pattern: PatternNightly always peaks
	// from 22:00 to 07:00.
	PeakStartHour, PeakEndHour int
	// SpikeMinutes is the spike length for PatternSpiky (around minute 0
	// and minute 30 of each hour).
	SpikeMinutes int
	// NoiseSD is the standard deviation of multiplicative Gaussian noise.
	NoiseSD float64
	// WeekendFactor scales utilization on weekends (1 = unchanged).
	WeekendFactor float64
	// PhaseShiftHours rotates the pattern, modelling different regions or
	// customer bases.
	PhaseShiftHours float64
}

// UtilAt returns the service's utilization at ts with deterministic noise
// from rng, clamped to [0.01, 1]: the noise-free value for ts's minute of
// day and weekday kind (in ts's own location), then the noise step.
func (p ServiceProfile) UtilAt(ts time.Time, rng *rand.Rand) float64 {
	minute, weekend := clockKey(ts)
	return p.WithNoise(p.CleanUtil(minute, weekend), rng)
}

// clockKey returns the part of ts a service's noise-free utilization
// depends on: the minute of the day and whether the day is a Saturday or
// Sunday, both in ts's own location.
func clockKey(ts time.Time) (minuteOfDay int, weekend bool) {
	h, m, _ := ts.Clock()
	wd := ts.Weekday()
	return h*60 + m, wd == time.Saturday || wd == time.Sunday
}

// CleanUtil returns the service's noise-free, unclamped utilization at
// minuteOfDay (0..1439) of a weekday or weekend day. It is a pure function
// of its arguments, so generators evaluate it once per distinct key and
// reuse the value across every tick that shares the key.
func (p ServiceProfile) CleanUtil(minuteOfDay int, weekend bool) float64 {
	hour := float64(minuteOfDay/60) + float64(minuteOfDay%60)/60 - p.PhaseShiftHours
	for hour < 0 {
		hour += 24
	}
	for hour >= 24 {
		hour -= 24
	}
	var u float64
	switch p.Pattern {
	case PatternDiurnal:
		mid := (p.BaseUtil + p.PeakUtil) / 2
		amp := (p.PeakUtil - p.BaseUtil) / 2
		u = mid - amp*math.Cos(2*math.Pi*hour/24)
	case PatternBroadPeak:
		u = p.BaseUtil
		if hour >= float64(p.PeakStartHour) && hour < float64(p.PeakEndHour) {
			u = p.PeakUtil
		}
	case PatternSpiky:
		u = p.BaseUtil
		min := minuteOfDay % 60
		spike := p.SpikeMinutes
		if spike <= 0 {
			spike = 5
		}
		if min < spike || (min >= 30 && min < 30+spike) {
			u = p.PeakUtil
		}
	case PatternConstant:
		u = p.PeakUtil
	case PatternNightly:
		u = p.PeakUtil
		if hour >= 7 && hour < 22 {
			u = p.BaseUtil
		}
	default:
		u = p.BaseUtil
	}
	if weekend && p.WeekendFactor > 0 {
		u *= p.WeekendFactor
	}
	return u
}

// WithNoise is UtilAt's last step: it applies multiplicative Gaussian noise
// from rng to a CleanUtil value (none when rng is nil or NoiseSD is 0,
// consuming no randomness) and clamps the result to [0.01, 1].
func (p ServiceProfile) WithNoise(clean float64, rng *rand.Rand) float64 {
	u := clean
	if p.NoiseSD > 0 && rng != nil {
		u *= 1 + rng.NormFloat64()*p.NoiseSD
	}
	if u < 0.01 {
		u = 0.01
	}
	if u > 1 {
		u = 1
	}
	return u
}

// ServiceA models the paper's Fig 1 Service A: a broad weekday peak from
// 10am to noon.
func ServiceA() ServiceProfile {
	return ServiceProfile{
		Name: "ServiceA", Pattern: PatternBroadPeak,
		BaseUtil: 0.25, PeakUtil: 0.9,
		PeakStartHour: 10, PeakEndHour: 12,
		NoiseSD: 0.03, WeekendFactor: 0.5,
	}
}

// ServiceB models Fig 1 Service B: ~5-minute spikes at the top and bottom
// of each hour.
func ServiceB() ServiceProfile {
	return ServiceProfile{
		Name: "ServiceB", Pattern: PatternSpiky,
		BaseUtil: 0.2, PeakUtil: 0.85, SpikeMinutes: 5,
		NoiseSD: 0.03, WeekendFactor: 0.6,
	}
}

// ServiceC models Fig 1 Service C: like Service B with a different base.
func ServiceC() ServiceProfile {
	return ServiceProfile{
		Name: "ServiceC", Pattern: PatternSpiky,
		BaseUtil: 0.3, PeakUtil: 0.95, SpikeMinutes: 5,
		NoiseSD: 0.03, WeekendFactor: 0.7,
	}
}

// MLTrainProfile models throughput-optimized training: constant high load.
func MLTrainProfile() ServiceProfile {
	return ServiceProfile{
		Name: "MLTrain", Pattern: PatternConstant,
		BaseUtil: 0.85, PeakUtil: 0.92, NoiseSD: 0.02, WeekendFactor: 1,
	}
}

// Catalog returns a mix of service archetypes for populating multi-tenant
// servers; the variety is what produces statistical multiplexing.
func Catalog() []ServiceProfile {
	return []ServiceProfile{
		ServiceA(),
		ServiceB(),
		ServiceC(),
		MLTrainProfile(),
		{Name: "WebFrontend", Pattern: PatternDiurnal, BaseUtil: 0.15, PeakUtil: 0.7,
			NoiseSD: 0.05, WeekendFactor: 0.6},
		{Name: "KVStore", Pattern: PatternDiurnal, BaseUtil: 0.3, PeakUtil: 0.6,
			NoiseSD: 0.04, WeekendFactor: 0.8, PhaseShiftHours: 3},
		{Name: "BatchETL", Pattern: PatternNightly, BaseUtil: 0.1, PeakUtil: 0.8,
			NoiseSD: 0.05, WeekendFactor: 1},
		{Name: "VideoConf", Pattern: PatternBroadPeak, BaseUtil: 0.2, PeakUtil: 0.85,
			PeakStartHour: 9, PeakEndHour: 17, NoiseSD: 0.04, WeekendFactor: 0.3},
		{Name: "Analytics", Pattern: PatternDiurnal, BaseUtil: 0.2, PeakUtil: 0.5,
			NoiseSD: 0.06, WeekendFactor: 0.9, PhaseShiftHours: -4},
		{Name: "SearchIdx", Pattern: PatternNightly, BaseUtil: 0.15, PeakUtil: 0.75,
			NoiseSD: 0.05, WeekendFactor: 1},
	}
}
