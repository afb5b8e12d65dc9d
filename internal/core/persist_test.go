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
