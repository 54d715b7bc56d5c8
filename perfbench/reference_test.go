package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestReferencesCoverEveryWorkloadAndSeed(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads() {
		for _, seed := range referenceSeeds {
			if len(refs[w.name][strconv.FormatInt(seed, 10)]) != 64 {
				t.Errorf("no SHA-256 reference for %s seed %d", w.name, seed)
			}
		}
	}
}

func TestDigestMismatchFailsTheRun(t *testing.T) {
	digest := fleetDigest(10, 9, 1)
	refs := references{"fleet-day": {"1": hashDigest(digest)}}
	if err := refs.check("fleet-day", 1, digest); err != nil {
		t.Fatalf("matching digest rejected: %v", err)
	}
	err := refs.check("fleet-day", 1, fleetDigest(10, 8, 1))
	if err == nil || !strings.Contains(err.Error(), "successes=8") {
		t.Fatalf("mismatch error = %v, want one quoting the outputs", err)
	}
	if err := refs.check("fleet-day", 2, digest); err == nil {
		t.Fatal("a seed without a reference passed the check")
	}

	var c checks
	c.add(1, 0, "")
	c.add(1, 1, err.Error())
	var out, errOut bytes.Buffer
	code := report(&out, &errOut, endToEnd, map[string]float64{"wall_s": 1}, &c)
	if code == 0 {
		t.Fatal("a failed check exited 0")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Fatalf("result = %+v, want correct=false attempted=2 failed=1", res)
	}
	if !strings.Contains(errOut.String(), "successes=8") {
		t.Fatalf("failure not described on stderr: %q", errOut.String())
	}
}

func TestReportPrintsEveryMetricWithUnit(t *testing.T) {
	var out, errOut bytes.Buffer
	var c checks
	c.add(3, 0, "")
	if code := report(&out, &errOut, perLayer, map[string]float64{"core.soa_ticks": 42}, &c); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("result = %+v", res)
	}
	for _, d := range perLayer {
		if res.Metrics[d.name].Unit != d.unit {
			t.Errorf("%s: unit %q, want %q", d.name, res.Metrics[d.name].Unit, d.unit)
		}
	}
	if res.Metrics["core.soa_ticks"].Value != 42 {
		t.Fatalf("core.soa_ticks = %v", res.Metrics["core.soa_ticks"].Value)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(allWorkloads()) {
		t.Errorf("BENCHMARK.json lists %v, program has %d workloads", names, len(allWorkloads()))
	}
	for _, set := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.json) != len(set.defs) {
			t.Errorf("BENCHMARK.json has %d metrics, program prints %d", len(set.json), len(set.defs))
			continue
		}
		for i, d := range set.defs {
			if set.json[i].Name != d.name || set.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, set.json[i].Name, set.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
