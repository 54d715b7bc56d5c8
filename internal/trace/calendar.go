package trace

import "time"

// minutesPerDay bounds a calendar's distinct keys: one per minute of the
// day, on a weekday and on a weekend day.
const minutesPerDay = 24 * 60

// Calendar indexes the ticks of a fixed-step window by their clock key:
// the (minute-of-day, weekend) pair that ServiceProfile.CleanUtil depends
// on. Keys are numbered densely in order of first appearance, so anything
// that is a function of the key alone (a VM's noise-free utilization, a
// server's overclock demand) can be computed once per key into a slice of
// NumKeys values and read back per tick by index. At 5-minute steps a
// calendar has at most 576 keys however many days it spans.
//
// A calendar is built once per rack and window; it is read-only after
// NewCalendar, so any number of goroutines may share it.
type Calendar struct {
	// tickKey[t] is the dense key index of tick t.
	tickKey []int32
	keys    []clockKeyVal
}

// clockKeyVal is one distinct (minute-of-day, weekend) key.
type clockKeyVal struct {
	minute  int16
	weekend bool
}

// NewCalendar builds the calendar of ticks instants start, start+step, ...
// Each instant is decomposed in start's location, exactly as
// ServiceProfile.UtilAt decomposes it, so daylight-saving changes and
// half-hour zone offsets land on the keys UtilAt would use.
func NewCalendar(start time.Time, step time.Duration, ticks int) *Calendar {
	if ticks < 0 {
		ticks = 0
	}
	nkeys := 2 * minutesPerDay
	if ticks < nkeys {
		nkeys = ticks
	}
	c := &Calendar{tickKey: make([]int32, ticks), keys: make([]clockKeyVal, 0, nkeys)}
	// index[weekend*minutesPerDay+minute] holds a key's dense index plus
	// one; zero marks a key not yet seen.
	var index [2 * minutesPerDay]int32
	for t := range c.tickKey {
		minute, weekend := clockKey(start.Add(time.Duration(t) * step))
		slot := minute
		if weekend {
			slot += minutesPerDay
		}
		if index[slot] == 0 {
			c.keys = append(c.keys, clockKeyVal{minute: int16(minute), weekend: weekend})
			index[slot] = int32(len(c.keys))
		}
		c.tickKey[t] = index[slot] - 1
	}
	return c
}

// Len returns the number of ticks the calendar covers.
func (c *Calendar) Len() int { return len(c.tickKey) }

// NumKeys returns the number of distinct clock keys among the ticks.
func (c *Calendar) NumKeys() int { return len(c.keys) }

// KeyOf returns the dense key index (0 <= k < NumKeys) of tick t.
func (c *Calendar) KeyOf(t int) int { return int(c.tickKey[t]) }

// Key returns key k's minute of the day and weekend flag, the arguments
// ServiceProfile.CleanUtil takes.
func (c *Calendar) Key(k int) (minuteOfDay int, weekend bool) {
	return int(c.keys[k].minute), c.keys[k].weekend
}
