package core

import (
	"bytes"
	"testing"

	"predperf/internal/design"
)

// FuzzLoadModel feeds arbitrary bytes through LoadModel, the reader of
// every model file predserve loads. Nothing may panic, and every model
// it accepts must answer PredictConfig on the corners of the paper
// space.
func FuzzLoadModel(f *testing.F) {
	// A small model keeps the seed short enough to mutate quickly.
	m, err := BuildRBFModel(FuncEvaluator(syntheticCPI), 12, fastOpt())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, seed := range []string{
		// The inputs of the LoadModel tests.
		"not json",
		`{"format":1,"centers":[[0.5]],"radii":[],"weights":[]}`,
		`{"format":99}`,
		// A space without the paper's parameters, and a zero radius.
		`{"format":1,"space":[{"name":"x","low":0,"high":1,"levels":2}],"centers":[[0.5]],"radii":[[1]],"weights":[1],"configs":[{}],"responses":[1]}`,
		`{"format":1,"space":[],"centers":[[]],"radii":[[]],"weights":[1],"configs":[{}],"responses":[1]}`,
	} {
		f.Add([]byte(seed))
	}
	// The simulation a model names: a valid pair, then each refusal.
	for _, sim := range []string{
		`"trace_len":150000,"metric":"edp"`,
		`"trace_len":-1`,
		`"trace_len":10000001`,
		`"metric":"ipc"`,
	} {
		f.Add(bytes.Replace(buf.Bytes(), []byte(`"format":1,`), []byte(`"format":1,`+sim+`,`), 1))
	}

	space := design.PaperSpace()
	var corners []design.Config
	for mask := 0; mask < 1<<space.N(); mask++ {
		pt := make(design.Point, space.N())
		for i := range pt {
			pt[i] = float64(mask >> i & 1)
		}
		corners = append(corners, space.Decode(pt, 90))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := LoadModel(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if m.TraceLen < 0 || m.TraceLen > maxTraceLen || m.Metric < MetricCPI || m.Metric > MetricPower {
			t.Fatalf("accepted trace_len %d, metric %d", m.TraceLen, m.Metric)
		}
		for _, c := range corners {
			m.PredictConfig(c)
		}
	})
}
