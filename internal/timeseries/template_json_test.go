package timeseries

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestDayTemplateRejectsNonPositiveStep is the regression test for
// templates that decoded cleanly with a zero or negative step and then
// panicked on their first At (a division by zero, or a negative slot).
func TestDayTemplateRejectsNonPositiveStep(t *testing.T) {
	for _, step := range []time.Duration{0, -5 * time.Minute} {
		raw := `{"step":` + jsonInt(step) + `,"slots":[1,2,3],"kind":0}`
		var d DayTemplate
		if err := json.Unmarshal([]byte(raw), &d); err == nil || !strings.Contains(err.Error(), "step") {
			t.Errorf("step %v: Unmarshal error = %v, want a step error", step, err)
		}
		var w WeekTemplate
		week := `{"Weekday":` + raw + `,"Weekend":{"step":300000000000,"slots":[1],"kind":1}}`
		if err := json.Unmarshal([]byte(week), &w); err == nil {
			t.Errorf("step %v: week template decoded without error", step)
		}
	}
	var d DayTemplate
	if err := json.Unmarshal([]byte(`{"step":3600000000000,"slots":[4,5],"kind":1}`), &d); err != nil {
		t.Fatalf("valid template rejected: %v", err)
	}
	if d.Step != time.Hour || d.At(time.Date(2023, 4, 15, 1, 30, 0, 0, time.UTC)) != 5 {
		t.Fatalf("valid template decoded as %+v", d)
	}
}

// jsonInt renders a duration as its JSON integer nanoseconds.
func jsonInt(d time.Duration) string {
	b, _ := json.Marshal(d) // a Duration always marshals
	return string(b)
}
