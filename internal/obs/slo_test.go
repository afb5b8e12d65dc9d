package obs

import (
	"math"
	"testing"
	"time"
)

func TestSLOBurnRateMath(t *testing.T) {
	// Controllable SLI: map window → (good, total).
	sli := map[string][2]int64{
		"5m": {900, 1000},
		"1h": {9900, 10000},
	}
	s := &SLO{
		Name:      "t",
		Objective: 0.999,
		SLI: func(d time.Duration) (int64, int64) {
			v := sli[WindowLabel(d)]
			return v[0], v[1]
		},
	}
	st := s.State()
	// 10% bad against a 0.1% budget burns at 100×; 1% bad burns at 10×.
	if math.Abs(st.Fast.BurnRate-100) > 1e-9 {
		t.Fatalf("fast burn = %v, want 100", st.Fast.BurnRate)
	}
	if math.Abs(st.Slow.BurnRate-10) > 1e-9 {
		t.Fatalf("slow burn = %v, want 10", st.Slow.BurnRate)
	}
	// Fast window over threshold alone must not fire (de-flapping AND).
	if st.Firing {
		t.Fatal("SLO fired with only the fast window over threshold")
	}
	if st.Threshold != BurnThreshold {
		t.Fatalf("threshold = %v, want %v", st.Threshold, BurnThreshold)
	}
	// BudgetSpent tracks the slow burn, capped at 10.
	if math.Abs(st.BudgetSpent-10) > 1e-9 {
		t.Fatalf("budget spent = %v, want 10", st.BudgetSpent)
	}

	// Both windows over threshold: fires.
	sli["1h"] = [2]int64{9000, 10000}
	if st = s.State(); !st.Firing {
		t.Fatalf("SLO did not fire with both burns at 100: %+v", st)
	}

	// No traffic burns nothing.
	sli["5m"], sli["1h"] = [2]int64{0, 0}, [2]int64{0, 0}
	st = s.State()
	if st.Fast.BurnRate != 0 || st.Slow.BurnRate != 0 || st.Firing {
		t.Fatalf("empty windows burned: %+v", st)
	}
}

func TestLatencySLIAgainstWindowedHistogram(t *testing.T) {
	Reset()
	clk := newFakeClock()
	h := NewHistogram("test.slo_lat", []float64{0.1, 0.25, 0.5})
	w := WindowHistogram(h, clk.now)
	w.Tick()
	// 3 good (≤ 0.25), 1 bad.
	for _, v := range []float64{0.05, 0.2, 0.25, 0.4} {
		h.Observe(v)
	}
	good, total := LatencySLI(w, 0.25)(time.Minute)
	if good != 3 || total != 4 {
		t.Fatalf("LatencySLI = %d/%d, want 3/4", good, total)
	}
}

func TestAvailabilitySLIClamps(t *testing.T) {
	Reset()
	clk := newFakeClock()
	errs := NewCounter("test.slo_errs")
	total := NewCounter("test.slo_total")
	we := WindowCounter(errs, clk.now)
	wt := WindowCounter(total, clk.now)
	we.Tick()
	wt.Tick()
	total.Add(10)
	errs.Add(2)
	good, n := AvailabilitySLI(we, wt)(time.Minute)
	if good != 8 || n != 10 {
		t.Fatalf("AvailabilitySLI = %d/%d, want 8/10", good, n)
	}
	// More errors than totals (window skew) clamps rather than going
	// negative.
	errs.Add(20)
	good, n = AvailabilitySLI(we, wt)(time.Minute)
	if good != 0 || n != 10 {
		t.Fatalf("skewed AvailabilitySLI = %d/%d, want 0/10", good, n)
	}
}

func TestRegisterSLOLatestWins(t *testing.T) {
	a := RegisterSLO(&SLO{Name: "test.dup", Objective: 0.9,
		SLI: func(time.Duration) (int64, int64) { return 1, 1 }})
	_ = a
	b := RegisterSLO(&SLO{Name: "test.dup", Objective: 0.99,
		SLI: func(time.Duration) (int64, int64) { return 1, 2 }})
	states := SLOStates()
	found := 0
	for _, st := range states {
		if st.Name == "test.dup" {
			found++
			if st.Objective != b.Objective {
				t.Fatalf("stale SLO survived re-registration: %+v", st)
			}
		}
	}
	if found != 1 {
		t.Fatalf("found %d states for the name, want exactly 1", found)
	}
}

func TestAlertSetTransitions(t *testing.T) {
	clk := newFakeClock()
	a := NewAlertSet(clk.now)

	// A false state for a condition that never fired leaves no trace.
	a.Set("quiet", false, "nothing")
	if got := a.Alerts(); len(got) != 0 {
		t.Fatalf("never-fired condition appeared: %+v", got)
	}

	t0 := clk.now()
	a.Set("hot", true, "burn %d", 1)
	clk.advance(30 * time.Second)
	a.Set("hot", true, "burn %d", 2) // still firing: reason updates, Since does not
	al := a.Alerts()
	if len(al) != 1 || !al[0].Firing || al[0].Count != 1 {
		t.Fatalf("alerts = %+v", al)
	}
	if al[0].Since != t0.UTC().Format(time.RFC3339) {
		t.Fatalf("Since = %q, want the first transition %q", al[0].Since, t0.UTC().Format(time.RFC3339))
	}
	if al[0].Reason != "burn 2" {
		t.Fatalf("Reason = %q, want the latest evaluation", al[0].Reason)
	}
	if a.FiringCount() != 1 {
		t.Fatalf("FiringCount = %d", a.FiringCount())
	}

	clk.advance(30 * time.Second)
	tRes := clk.now()
	a.Set("hot", false, "")
	al = a.Alerts()
	if al[0].Firing || al[0].ResolvedAt != tRes.UTC().Format(time.RFC3339) {
		t.Fatalf("resolved alert = %+v", al[0])
	}

	// Re-firing bumps the count and clears ResolvedAt.
	clk.advance(time.Minute)
	a.Set("hot", true, "again")
	al = a.Alerts()
	if !al[0].Firing || al[0].Count != 2 || al[0].ResolvedAt != "" {
		t.Fatalf("re-fired alert = %+v", al[0])
	}
}
