package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimesSubtractChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 0, Parent: -1, Name: "experiment.rack", Busy: 100 * ms, AllocBytes: 1000},
		{ID: 1, Parent: 0, Name: "trace.gen", Busy: 30 * ms, AllocBytes: 400},
		{ID: 2, Parent: 0, Name: "power.rack_tick", Calls: 5, Busy: 50 * ms, AllocBytes: 300},
		{ID: 3, Parent: 2, Name: "core.soa_rack_event", Calls: 2, Busy: 20 * ms, AllocBytes: 100},
		// A child whose allocation was not measured leaves its bytes with
		// the parent.
		{ID: 4, Parent: 0, Name: "core.goa_budget", Busy: 5 * ms},
	}
	self := SelfTimes(spans)
	want := []time.Duration{15 * ms, 30 * ms, 30 * ms, 20 * ms, 5 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].Name, self[i], want[i])
		}
	}
	allocs := SelfAllocs(spans)
	wantAlloc := []int64{300, 400, 200, 100, 0}
	for i := range wantAlloc {
		if allocs[i] != wantAlloc[i] {
			t.Errorf("self alloc[%d] (%s) = %d, want %d", i, spans[i].Name, allocs[i], wantAlloc[i])
		}
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != spans[0].Busy {
		t.Errorf("self times sum to %v, want the root's %v", sum, spans[0].Busy)
	}
}

func TestTracerNestingAndTotals(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("experiment.fleet")
	rack := tr.Begin("experiment.rack")
	gen := tr.Begin("trace.gen")
	time.Sleep(2 * time.Millisecond)
	tr.End(gen)
	tick := tr.Agg(rack, "core.soa_tick")
	for i := 0; i < 3; i++ {
		m := tr.Mark()
		time.Sleep(time.Millisecond)
		tr.Add(tick, m)
	}
	tr.End(rack)
	tr.End(root)

	spans := tr.Spans()
	if got := []int{spans[root].Parent, spans[rack].Parent, spans[gen].Parent, spans[tick].Parent}; got[0] != -1 || got[1] != root || got[2] != rack || got[3] != rack {
		t.Fatalf("parents = %v, want [-1 %d %d %d]", got, root, rack, rack)
	}
	if spans[tick].Calls != 3 || spans[tick].Busy < 3*time.Millisecond {
		t.Fatalf("aggregate = %d calls, %v busy; want 3 calls, >= 3ms", spans[tick].Calls, spans[tick].Busy)
	}
	if spans[tick].Start < spans[gen].End || spans[tick].End > spans[rack].End {
		t.Fatalf("aggregate interval [%v, %v] outside its parent's", spans[tick].Start, spans[tick].End)
	}
	tot := tr.Totals()
	rackSelf := spans[rack].Busy - spans[gen].Busy - spans[tick].Busy
	if tot["experiment.rack"].Self != rackSelf {
		t.Fatalf("rack self = %v, want %v", tot["experiment.rack"].Self, rackSelf)
	}
	if tot["core.soa_tick"].Calls != 3 {
		t.Fatalf("tick calls = %d, want 3", tot["core.soa_tick"].Calls)
	}

	path := filepath.Join(t.TempDir(), "spans", "x.jsonl")
	if err := tr.WriteJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s != spans[n] {
			t.Fatalf("line %d = %+v, want %+v", n, s, spans[n])
		}
	}
	if n != len(spans) {
		t.Fatalf("wrote %d spans, want %d", n, len(spans))
	}
}

func TestAddAllocChargesBatch(t *testing.T) {
	tr := NewTracer()
	id := tr.Agg(-1, "core.soa_tick")
	batch := tr.MarkAlloc()
	var keep [][]byte
	for i := 0; i < 4; i++ {
		m := tr.Mark()
		keep = append(keep, make([]byte, 1<<16))
		tr.Add(id, m)
	}
	tr.AddAlloc(id, batch)
	if len(keep) != 4 {
		t.Fatal("unreachable")
	}
	if got := tr.Spans()[id].AllocBytes; got < 4<<16 {
		t.Fatalf("batch alloc = %d, want >= %d", got, 4<<16)
	}
}
