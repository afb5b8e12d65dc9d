package core

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestErrorStatsSkipsZeroActuals(t *testing.T) {
	// A zero true response has no defined percentage error; before the
	// fix it produced Inf that poisoned Mean/Max/Std.
	pred := []float64{1.0, 2.0, 0.5}
	actual := []float64{1.0, 0.0, 1.0}
	s := errorStats(pred, actual)
	if s.N != 2 {
		t.Fatalf("N = %d, want 2 (zero-actual pair skipped)", s.N)
	}
	if math.IsInf(s.Mean, 0) || math.IsNaN(s.Mean) ||
		math.IsInf(s.Max, 0) || math.IsNaN(s.Max) ||
		math.IsInf(s.Std, 0) || math.IsNaN(s.Std) {
		t.Fatalf("stats poisoned by zero actual: %+v", s)
	}
	// Remaining pairs: 0%% and 50%% error → mean 25, max 50, std 25.
	if math.Abs(s.Mean-25) > 1e-12 || math.Abs(s.Max-50) > 1e-12 || math.Abs(s.Std-25) > 1e-12 {
		t.Fatalf("stats over surviving pairs wrong: %+v", s)
	}
}

func TestErrorStatsAllZeroActuals(t *testing.T) {
	s := errorStats([]float64{1, 2}, []float64{0, 0})
	if s != (ErrorStats{}) {
		t.Fatalf("want zero-value stats when every actual is zero, got %+v", s)
	}
}

func TestErrorStatsUnchangedOnCleanInput(t *testing.T) {
	pred := []float64{1.1, 1.9, 3.3}
	actual := []float64{1.0, 2.0, 3.0}
	s := errorStats(pred, actual)
	if s.N != 3 {
		t.Fatalf("N = %d, want 3", s.N)
	}
	// Errors are 10%, 5%, 10% → mean 25/3, max 10.
	if math.Abs(s.Mean-25.0/3) > 1e-9 || math.Abs(s.Max-10) > 1e-9 {
		t.Fatalf("clean-input stats wrong: %+v", s)
	}
}

func TestBuildToAccuracyRejectsBadInputs(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	ts := NewTestSet(ev, nil, 10, 3)

	// Nil test set used to panic inside Validate.
	if _, err := BuildToAccuracy(ev, []int{20}, 5, nil, fastOpt()); err == nil ||
		!strings.Contains(err.Error(), "test set") {
		t.Fatalf("want test-set error for nil ts, got %v", err)
	}
	if _, err := BuildToAccuracy(ev, []int{20}, 5, &TestSet{}, fastOpt()); err == nil ||
		!strings.Contains(err.Error(), "test set") {
		t.Fatalf("want test-set error for empty ts, got %v", err)
	}
	if _, err := BuildToAccuracy(nil, []int{20}, 5, ts, fastOpt()); err == nil ||
		!strings.Contains(err.Error(), "evaluator") {
		t.Fatalf("want evaluator error for nil ev, got %v", err)
	}
	if _, err := BuildToAccuracy(ev, nil, 5, ts, fastOpt()); err == nil ||
		!strings.Contains(err.Error(), "sample size") {
		t.Fatalf("want sizes error for empty sizes, got %v", err)
	}

	// And the happy path still works.
	res, err := BuildToAccuracy(ev, []int{20, 30}, 1e9, ts, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results from valid inputs")
	}
}

// TestBuildToAccuracyCtxCancel: a cancelled context stops the
// escalation and surfaces ctx.Err.
func TestBuildToAccuracyCtxCancel(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	ts := NewTestSet(ev, nil, 10, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := BuildToAccuracyCtx(ctx, ev, []int{15, 20}, 5, ts, fastOpt())
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("cancelled escalation returned err %v, want context.Canceled", err)
	}
	if len(res) != 0 {
		t.Fatalf("pre-cancelled escalation built %d models, want 0", len(res))
	}
}
