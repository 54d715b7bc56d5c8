package main

import (
	"testing"

	"smartoclock/internal/experiment"
)

// The traced drivers are only worth their layer figures if they simulate
// exactly what the simulator does. These run them against the simulator at
// small shapes.

func TestTracedFleetMatchesRunFleetScale(t *testing.T) {
	for _, evalDays := range []int{1, 8} { // 8 crosses the weekend and the weekly budget epoch
		cfg := scaleConfig(5, 2, evalDays)
		want, err := experiment.RunFleetScale(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tracedFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if w := fleetDigest(want.Requests, want.Successes, want.CapEvents); got.digest != w {
			t.Fatalf("eval days %d: traced %q, simulator %q", evalDays, got.digest, w)
		}
		if got.values["core.soa_ticks"] != float64(2*serversPerRack*evalDays*288) {
			t.Fatalf("eval days %d: %v sOA ticks", evalDays, got.values["core.soa_ticks"])
		}
		if got.values["trace.gen_calls"] != 2 || got.values["core.goa_budget_calls"] != 2 {
			t.Fatalf("eval days %d: layer calls %v", evalDays, got.values)
		}
	}
}

func TestTracedTable1MatchesRunTable1(t *testing.T) {
	cfg := table1Config(3, 1, 1, 1)
	_, rows, err := experiment.RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tracedTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := table1RowsDigest(rows); got.digest != want {
		t.Fatalf("traced rows:\n%s\nsimulator rows:\n%s", got.digest, want)
	}
	if got.values["parallel.shards"] != 15 {
		t.Fatalf("%v shards, want 15", got.values["parallel.shards"])
	}
}

func TestTracedZooMatchesRunZoo(t *testing.T) {
	cfg := zooConfig(2, 0)
	cfg.Duration = 5 * cfg.Tick * 12
	want, err := runZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tracedZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.digest != want.digest {
		t.Fatalf("traced cells:\n%s\nRunZoo cells:\n%s", got.digest, want.digest)
	}
	if want.failed != 0 || got.values["invariant.checks"] == 0 {
		t.Fatalf("%d failed cells, %v invariant checks", want.failed, got.values["invariant.checks"])
	}
}
