package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"predperf/internal/design"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	m, err := BuildRBFModel(ev, 40, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SampleSize != m.SampleSize {
		t.Fatalf("sample size %d, want %d", loaded.SampleSize, m.SampleSize)
	}
	if loaded.Fit.PMin != m.Fit.PMin || loaded.Fit.Alpha != m.Fit.Alpha {
		t.Fatalf("method params (%d,%v), want (%d,%v)",
			loaded.Fit.PMin, loaded.Fit.Alpha, m.Fit.PMin, m.Fit.Alpha)
	}
	// Predictions must be bit-identical.
	rng := rand.New(rand.NewSource(7))
	space := design.PaperSpace()
	for i := 0; i < 50; i++ {
		pt := make(design.Point, space.N())
		for k := range pt {
			pt[k] = rng.Float64()
		}
		if loaded.Predict(pt) != m.Predict(pt) {
			t.Fatalf("prediction diverged at %v", pt)
		}
		cfg := space.Decode(pt, 40)
		if loaded.PredictConfig(cfg) != m.PredictConfig(cfg) {
			t.Fatal("PredictConfig diverged")
		}
	}
	if len(loaded.Configs) != len(m.Configs) || len(loaded.Responses) != len(m.Responses) {
		t.Fatal("training record not preserved")
	}
}

func TestSaveLoadCrossValidateRoundTrip(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	m, err := BuildRBFModel(ev, 40, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The training points must be restored from the persisted configs:
	// Space.Encode is the same mapping the build used, so they are
	// bit-identical to the originals.
	if len(loaded.Points) != len(m.Points) {
		t.Fatalf("restored %d points, want %d", len(loaded.Points), len(m.Points))
	}
	for i := range m.Points {
		for k := range m.Points[i] {
			if loaded.Points[i][k] != m.Points[i][k] {
				t.Fatalf("restored point %d dim %d = %v, want %v",
					i, k, loaded.Points[i][k], m.Points[i][k])
			}
		}
	}
	// CrossValidate refits on the training data, so a reloaded model
	// must produce exactly the stats of the freshly built one — before
	// the fix it silently returned all-zero ErrorStats.
	want := m.CrossValidate(5)
	got := loaded.CrossValidate(5)
	if want.N == 0 || want.Mean == 0 {
		t.Fatalf("baseline cross-validation degenerate: %+v", want)
	}
	if got != want {
		t.Fatalf("cross-validation diverged after reload: %+v vs %+v", got, want)
	}
}

func TestLoadModelRequiresConfigs(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	m, err := BuildRBFModel(ev, 40, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	m.Configs = nil // simulate a legacy prediction-only file
	m.Responses = nil
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&buf); err == nil || !strings.Contains(err.Error(), "training configs") {
		t.Fatalf("want a clear missing-configs error, got %v", err)
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("not json")); err == nil {
		t.Fatal("expected error for non-JSON input")
	}
	if _, err := LoadModel(strings.NewReader(`{"format":1,"centers":[[0.5]],"radii":[],"weights":[]}`)); err == nil {
		t.Fatal("expected error for mismatched arrays")
	}
}

func TestLoadModelRejectsUnknownFormat(t *testing.T) {
	for _, in := range []string{`{"format": 99}`, `{"format": 0}`, `{}`} {
		_, err := LoadModel(strings.NewReader(in))
		if err == nil {
			t.Fatalf("want error for %s, got nil", in)
		}
		if !strings.Contains(err.Error(), "unsupported model format") {
			t.Fatalf("want a clear format error for %s, got %v", in, err)
		}
	}
}

func TestSaveLoadPreservesName(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	m, err := BuildRBFModel(ev, 40, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	m.Name = "mcf"
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "mcf" {
		t.Fatalf("loaded name %q, want %q", loaded.Name, "mcf")
	}
}

func TestLoadedModelValidates(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	m, err := BuildRBFModel(ev, 40, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTestSet(ev, nil, 20, 3)
	a, b := m.Validate(ts), loaded.Validate(ts)
	if a != b {
		t.Fatalf("validation differs: %+v vs %+v", a, b)
	}
}

// TestLoadModelRejectsBadRadii: a fit floors every radius at its
// MinRadius, so a file with a radius that is not positive is malformed.
// Loaded, a zero radius made every prediction NaN.
func TestLoadModelRejectsBadRadii(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	m, err := BuildRBFModel(ev, 40, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{0, -0.5} {
		var f map[string]any
		if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		for _, r := range f["radii"].([]any) {
			radii := r.([]any)
			for k := range radii {
				radii[k] = bad
			}
		}
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModel(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "radius") {
			t.Errorf("radii of %v: want a malformed-radius error, got %v", bad, err)
		}
	}
	if _, err := LoadModel(&buf); err != nil {
		t.Fatalf("the fitted model itself must load: %v", err)
	}
}

// TestSaveLoadPreservesSimulation: trace_len and metric round-trip for
// every metric; a CPI model's file leaves the metric key out, and a
// model built in memory, which sets neither, writes neither key.
func TestSaveLoadPreservesSimulation(t *testing.T) {
	m, err := BuildRBFModel(FuncEvaluator(syntheticCPI), 40, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if raw := buf.String(); strings.Contains(raw, `"trace_len"`) || strings.Contains(raw, `"metric"`) {
		t.Fatalf("a model built in memory wrote trace_len or metric: %.200s", raw)
	}
	for _, c := range []struct {
		metric Metric
		key    string
	}{{MetricCPI, ""}, {MetricEPI, `"metric":"epi"`}, {MetricEDP, `"metric":"edp"`}, {MetricPower, `"metric":"power"`}} {
		m.TraceLen, m.Metric = 150_000, c.metric
		buf.Reset()
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.String()
		if !strings.Contains(raw, `"trace_len":150000`) {
			t.Errorf("%v: file lacks trace_len: %.200s", c.metric, raw)
		}
		if c.key == "" && strings.Contains(raw, `"metric"`) || c.key != "" && !strings.Contains(raw, c.key) {
			t.Errorf("%v: file's metric key is wrong, want %q: %.200s", c.metric, c.key, raw)
		}
		loaded, err := LoadModel(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.TraceLen != 150_000 || loaded.Metric != c.metric {
			t.Errorf("loaded trace_len %d metric %v, want 150000 and %v", loaded.TraceLen, loaded.Metric, c.metric)
		}
	}
}

// TestLoadModelRejectsBadSimulation: a negative trace_len, one past
// 10,000,000 and an unknown metric are malformed. A model file is a
// trust boundary, and the trace length sizes the trace a server
// generates to re-simulate the model.
func TestLoadModelRejectsBadSimulation(t *testing.T) {
	m, err := BuildRBFModel(FuncEvaluator(syntheticCPI), 40, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	with := func(key string, v any) []byte {
		var f map[string]any
		if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		f[key] = v
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, c := range []struct {
		key string
		v   any
	}{{"trace_len", -1}, {"trace_len", maxTraceLen + 1}, {"metric", "ipc"}} {
		if _, err := LoadModel(bytes.NewReader(with(c.key, c.v))); err == nil || !strings.Contains(err.Error(), "malformed model") {
			t.Errorf("%s %v: want a malformed-model error, got %v", c.key, c.v, err)
		}
	}
	if loaded, err := LoadModel(bytes.NewReader(with("trace_len", maxTraceLen))); err != nil || loaded.TraceLen != maxTraceLen {
		t.Errorf("trace_len at the cap: %v, want it to load", err)
	}
}
