package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// Span is one traced interval at a layer boundary, or the aggregate of
// every call into one layer under the same parent. Hot per-tick calls
// (sOA ticks, rack ticks) are aggregated so the trace stays small enough to
// keep in memory; coarse calls (rack generation, gOA budgets) are one span
// each. Times are offsets from the tracer's start.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	// Start is the first call's start, End the last call's end.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Calls is 1 for a plain span and the number of calls for an aggregate.
	Calls int `json:"calls"`
	// Busy is the time spent inside the span's calls, children included.
	Busy time.Duration `json:"busy_ns"`
	// AllocBytes is the heap allocated inside the span, children included,
	// where the caller measured it.
	AllocBytes uint64 `json:"alloc_bytes"`
}

// Tracer keeps spans in memory; WriteJSONL writes them out once the run
// ends. It is single-goroutine, like the traced drivers.
type Tracer struct {
	t0      time.Time
	spans   []Span
	open    []int    // stack of open plain spans
	allocAt []uint64 // heap-alloc counter at each span's Begin
	sample  []metrics.Sample
}

// NewTracer starts a tracer; span times are offsets from now.
func NewTracer() *Tracer {
	return &Tracer{
		t0:     time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// Spans returns the recorded spans, indexed by ID.
func (t *Tracer) Spans() []Span { return t.spans }

func (t *Tracer) now() time.Duration { return time.Since(t.t0) }

// Allocs reads the process's cumulative heap-allocation counter.
func (t *Tracer) Allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

func (t *Tracer) add(parent int, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name})
	t.allocAt = append(t.allocAt, 0)
	return id
}

// Begin opens a plain span as a child of the innermost open span.
func (t *Tracer) Begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := t.add(parent, name)
	t.open = append(t.open, id)
	t.allocAt[id] = t.Allocs()
	t.spans[id].Start = t.now()
	return id
}

// End closes the innermost open span, which must be id.
func (t *Tracer) End(id int) {
	end := t.now()
	s := &t.spans[id]
	s.End = end
	s.Busy = end - s.Start
	s.Calls = 1
	s.AllocBytes = t.Allocs() - t.allocAt[id]
	t.open = t.open[:len(t.open)-1]
}

// Agg creates an aggregate span named name under parent. Callers hold the
// ID for the duration of a rack and add calls to it with Add.
func (t *Tracer) Agg(parent int, name string) int { return t.add(parent, name) }

// Mark is the start of one call into an aggregate span.
type Mark struct {
	at    time.Duration
	alloc uint64
	heap  bool
}

// Mark starts timing one call.
func (t *Tracer) Mark() Mark { return Mark{at: t.now()} }

// MarkAlloc starts timing one call and also snapshots the heap-allocation
// counter. Reading it costs more than reading the clock, so hot per-tick
// calls use Mark and account allocation per batch with AddAlloc.
func (t *Tracer) MarkAlloc() Mark {
	a := t.Allocs()
	return Mark{at: t.now(), alloc: a, heap: true}
}

// Add records one call into aggregate span id that started at m.
func (t *Tracer) Add(id int, m Mark) {
	end := t.now()
	s := &t.spans[id]
	if s.Calls == 0 {
		s.Start = m.at
	}
	s.End = end
	s.Busy += end - m.at
	s.Calls++
	if m.heap {
		s.AllocBytes += t.Allocs() - m.alloc
	}
}

// AddAlloc charges the heap allocated since m (a MarkAlloc) to span id
// without counting a call: the batch form for hot loops.
func (t *Tracer) AddAlloc(id int, m Mark) {
	t.spans[id].AllocBytes += t.Allocs() - m.alloc
}

// SelfTimes returns each span's busy time minus its children's busy time.
// Children run inside their parent on the same goroutine, so the part of
// the parent's interval they cover is exactly the sum of their busy times.
func SelfTimes(spans []Span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.Busy
		if s.Parent >= 0 {
			self[s.Parent] -= s.Busy
		}
	}
	return self
}

// SelfAllocs is SelfTimes for allocated bytes. Children whose allocation
// was not measured contribute zero, leaving their bytes with the parent.
func SelfAllocs(spans []Span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += int64(s.AllocBytes)
		if s.Parent >= 0 {
			self[s.Parent] -= int64(s.AllocBytes)
		}
	}
	return self
}

// LayerTotals folds spans by name: inclusive busy time, self time, calls
// and self-allocated bytes.
type LayerTotals struct {
	Busy, Self time.Duration
	Calls      int
	SelfAlloc  int64
}

// Totals folds the tracer's spans by name.
func (t *Tracer) Totals() map[string]LayerTotals {
	self := SelfTimes(t.spans)
	selfAlloc := SelfAllocs(t.spans)
	out := make(map[string]LayerTotals)
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.Busy += s.Busy
		lt.Self += self[i]
		lt.Calls += s.Calls
		lt.SelfAlloc += selfAlloc[i]
		out[s.Name] = lt
	}
	return out
}

// WriteJSONL writes every span, one JSON object per line, to path.
func (t *Tracer) WriteJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
