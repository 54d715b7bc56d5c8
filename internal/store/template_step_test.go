package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/machine"
	"smartoclock/internal/timeseries"
)

// TestDecodeRejectsNonPositiveTemplateStep writes CRC-valid checkpoints
// whose sOA power or assigned template has a zero or negative step. Decode
// and Load must fail with an error, never panic, so no restored agent can
// later divide by the step.
func TestDecodeRejectsNonPositiveTemplateStep(t *testing.T) {
	badWeek := func(step time.Duration) *timeseries.WeekTemplate {
		w := timeseries.FlatWeek(300, time.Hour)
		w.Weekday.Step = step
		return w
	}
	for _, step := range []time.Duration{0, -time.Minute} {
		for _, field := range []string{"power_template", "assigned"} {
			mcfg := machine.DefaultConfig()
			mcfg.Cores = 4
			srv := cluster.NewServer("s0", mcfg, 0)
			soa := core.NewSOA(core.DefaultSOAConfig(), srv, lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), mcfg.Cores, t0), 400, t0)
			if field == "power_template" {
				soa.SetPowerTemplate(badWeek(step))
			} else {
				soa.SetAssignedBudget(badWeek(step))
			}
			data, err := Encode(t0, &Checkpoint{SOAs: map[string]*core.SOAState{"s0": soa.Snapshot()}})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "cp.json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s step %v: decoding panicked: %v", field, step, r)
					}
				}()
				var got Checkpoint
				if _, err := Decode(data, &got); err == nil || !strings.Contains(err.Error(), "step") {
					t.Errorf("%s step %v: Decode error = %v, want a step error", field, step, err)
				}
				if _, err := Load(path, &got); err == nil {
					t.Errorf("%s step %v: Load succeeded", field, step)
				}
			}()
		}
	}
}
