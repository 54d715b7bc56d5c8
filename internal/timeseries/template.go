package timeseries

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// DayKind selects which days of the week a template aggregates over.
// SmartOClock keeps separate templates for weekdays and weekends (§IV-B).
type DayKind int

const (
	// Weekdays selects Monday through Friday.
	Weekdays DayKind = iota
	// Weekends selects Saturday and Sunday.
	Weekends
	// AllDays selects every day.
	AllDays
)

// String returns a human-readable name for the day kind.
func (k DayKind) String() string {
	switch k {
	case Weekdays:
		return "weekdays"
	case Weekends:
		return "weekends"
	case AllDays:
		return "alldays"
	default:
		return fmt.Sprintf("DayKind(%d)", int(k))
	}
}

// Matches reports whether weekday belongs to the kind.
func (k DayKind) Matches(d time.Weekday) bool {
	switch k {
	case Weekdays:
		return d >= time.Monday && d <= time.Friday
	case Weekends:
		return d == time.Saturday || d == time.Sunday
	default:
		return true
	}
}

// Reduce collapses the per-day samples of one time-of-day slot into a single
// template value. A Reduce may reorder samples in place; callers must not
// rely on the slice's order afterwards.
type Reduce func(samples []float64) float64

// ReduceMedian returns the median of the samples (the paper's DailyMed).
// It sorts samples in place: template fitting runs once per server per
// experiment shard, and the avoided copy was the single largest allocation
// source in the fleet-simulation profile.
func ReduceMedian(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// ReduceMax returns the maximum of the samples (the paper's DailyMax).
func ReduceMax(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	m := samples[0]
	for _, v := range samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ReduceMean returns the mean of the samples.
func ReduceMean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// DayTemplate is a single representative day at a fixed slot width: the
// paper's "power template". Slot i covers [i*Step, (i+1)*Step) of a day.
type DayTemplate struct {
	Step   time.Duration
	Slots  []float64
	Kind   DayKind
	counts []int // number of contributing days per slot, for diagnostics
}

// NumSlots returns the number of time-of-day slots.
func (t *DayTemplate) NumSlots() int { return len(t.Slots) }

// SlotOf returns the slot index for instant ts.
func (t *DayTemplate) SlotOf(ts time.Time) int {
	sinceMidnight := time.Duration(ts.Hour())*time.Hour +
		time.Duration(ts.Minute())*time.Minute +
		time.Duration(ts.Second())*time.Second
	i := int(sinceMidnight / t.Step)
	if i >= len(t.Slots) {
		i = len(t.Slots) - 1
	}
	return i
}

// At returns the template value for the time of day of ts. It does not check
// that ts's weekday matches the template's kind; callers pick the template.
func (t *DayTemplate) At(ts time.Time) float64 {
	if len(t.Slots) == 0 {
		return 0
	}
	return t.Slots[t.SlotOf(ts)]
}

// SampleCount returns how many days contributed to slot i.
func (t *DayTemplate) SampleCount(i int) int {
	if i < 0 || i >= len(t.counts) {
		return 0
	}
	return t.counts[i]
}

// dayTemplateJSON is the wire form of a DayTemplate; it exists so the
// unexported per-slot sample counts survive a checkpoint/restore cycle.
type dayTemplateJSON struct {
	Step   time.Duration `json:"step"`
	Slots  []float64     `json:"slots"`
	Kind   DayKind       `json:"kind"`
	Counts []int         `json:"counts,omitempty"`
}

// MarshalJSON implements json.Marshaler, including the diagnostic sample
// counts that the exported fields alone would lose.
func (t *DayTemplate) MarshalJSON() ([]byte, error) {
	return json.Marshal(dayTemplateJSON{Step: t.Step, Slots: t.Slots, Kind: t.Kind, Counts: t.counts})
}

// UnmarshalJSON implements json.Unmarshaler. It rejects a non-positive
// step: At divides by the step, so such a template would restore cleanly
// and then panic on its first lookup.
func (t *DayTemplate) UnmarshalJSON(data []byte) error {
	var w dayTemplateJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Step <= 0 {
		return fmt.Errorf("timeseries: day template step %v, must be positive", w.Step)
	}
	t.Step = w.Step
	t.Slots = w.Slots
	t.Kind = w.Kind
	t.counts = w.Counts
	return nil
}

// Max returns the maximum slot value.
func (t *DayTemplate) Max() float64 {
	m := 0.0
	for i, v := range t.Slots {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// BuildDayTemplate aggregates a multi-day series into a single representative
// day. Samples are grouped by time-of-day slot across all days matching kind,
// then collapsed with reduce. The slot width equals the series step.
//
// This implements the paper's per-day aggregation: "the template's value at
// 9AM is the median of rack's power consumption at 9AM across all five
// weekdays" (§IV-B).
func BuildDayTemplate(s *Series, kind DayKind, reduce Reduce) *DayTemplate {
	slotsPerDay := int(24 * time.Hour / s.Step)
	if slotsPerDay < 1 {
		slotsPerDay = 1
	}
	// Template fitting runs once per server per experiment shard, so it is
	// built in two passes over a single backing array instead of growing a
	// slice per slot: pass one records each sample's slot and the per-slot
	// counts, pass two partitions the samples contiguously.
	slotOf := make([]int32, len(s.Values))
	counts := make([]int, slotsPerDay)
	for i := range s.Values {
		ts := s.TimeAt(i)
		if !kind.Matches(ts.Weekday()) {
			slotOf[i] = -1
			continue
		}
		sinceMidnight := time.Duration(ts.Hour())*time.Hour +
			time.Duration(ts.Minute())*time.Minute +
			time.Duration(ts.Second())*time.Second
		slot := int(sinceMidnight / s.Step)
		if slot >= slotsPerDay {
			slot = slotsPerDay - 1
		}
		slotOf[i] = int32(slot)
		counts[slot]++
	}
	offsets := make([]int, slotsPerDay)
	total := 0
	for i, c := range counts {
		offsets[i] = total
		total += c
	}
	backing := make([]float64, total)
	fill := make([]int, slotsPerDay)
	for i, v := range s.Values {
		slot := slotOf[i]
		if slot < 0 {
			continue
		}
		backing[offsets[slot]+fill[slot]] = v
		fill[slot]++
	}
	t := &DayTemplate{Step: s.Step, Kind: kind,
		Slots: make([]float64, slotsPerDay), counts: counts}
	for i := range counts {
		t.Slots[i] = reduce(backing[offsets[i] : offsets[i]+counts[i]])
	}
	return t
}

// WeekTemplate pairs a weekday template with a weekend template, selecting
// the right one by the weekday of the queried instant.
type WeekTemplate struct {
	Weekday *DayTemplate
	Weekend *DayTemplate
}

// BuildWeekTemplate builds both day templates from the series with the given
// reduce function.
func BuildWeekTemplate(s *Series, reduce Reduce) *WeekTemplate {
	return &WeekTemplate{
		Weekday: BuildDayTemplate(s, Weekdays, reduce),
		Weekend: BuildDayTemplate(s, Weekends, reduce),
	}
}

// At returns the template value for instant ts, using the weekday or weekend
// template as appropriate.
func (w *WeekTemplate) At(ts time.Time) float64 {
	if Weekends.Matches(ts.Weekday()) {
		return w.Weekend.At(ts)
	}
	return w.Weekday.At(ts)
}

// FlatWeek returns a week template holding a single constant value at the
// given slot width — useful for pushing scalar budgets through
// template-shaped interfaces.
func FlatWeek(v float64, step time.Duration) *WeekTemplate {
	slots := int(24 * time.Hour / step)
	if slots < 1 {
		slots = 1
	}
	mk := func(kind DayKind) *DayTemplate {
		t := &DayTemplate{Step: step, Kind: kind, Slots: make([]float64, slots)}
		for i := range t.Slots {
			t.Slots[i] = v
		}
		return t
	}
	return &WeekTemplate{Weekday: mk(Weekdays), Weekend: mk(Weekends)}
}
