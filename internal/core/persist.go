package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"predperf/internal/design"
	"predperf/internal/rbf"
)

// modelFile is the on-disk representation of a fitted model. Only what
// prediction needs is stored: the design space, the basis functions, and
// the training diagnostics; the regression tree is not persisted.
type modelFile struct {
	Format     int             `json:"format"`
	Name       string          `json:"name,omitempty"`
	TraceLen   int             `json:"trace_len,omitempty"`
	Metric     string          `json:"metric,omitempty"`
	SampleSize int             `json:"sample_size"`
	PMin       int             `json:"p_min"`
	Alpha      float64         `json:"alpha"`
	AICc       float64         `json:"aicc"`
	Space      []design.Param  `json:"space"`
	Centers    [][]float64     `json:"centers"`
	Radii      [][]float64     `json:"radii"`
	Weights    []float64       `json:"weights"`
	Configs    []design.Config `json:"configs,omitempty"`
	Responses  []float64       `json:"responses,omitempty"`
}

const modelFormat = 1

// maxTraceLen bounds a model file's trace_len. The length sizes the
// trace a server generates to re-simulate the model, so a file must not
// choose it freely; no simworker at its default -max-insts simulates a
// longer trace.
const maxTraceLen = 10_000_000

// ModelFormatVersion is the on-disk model format this build reads and
// writes, exported so operational surfaces (predserve -version,
// /healthz, /statusz) can report which model files the binary accepts.
const ModelFormatVersion = modelFormat

// Save serializes the model as JSON. The saved model reloads with
// LoadModel and predicts identically; the regression tree is not
// preserved, and the normalized training points are re-derived from the
// persisted configs at load time rather than stored.
func (m *Model) Save(w io.Writer) error {
	f := modelFile{
		Format:     modelFormat,
		Name:       m.Name,
		TraceLen:   m.TraceLen,
		SampleSize: m.SampleSize,
		PMin:       m.Fit.PMin,
		Alpha:      m.Fit.Alpha,
		AICc:       m.Fit.AICc,
		Space:      m.Space.Params,
		Weights:    m.Fit.Net.Weights,
		Configs:    m.Configs,
		Responses:  m.Responses,
	}
	// ParseMetric's names; CPI leaves the key out, so every file written
	// before the key existed reads as CPI.
	if m.Metric != MetricCPI {
		f.Metric = strings.ToLower(m.Metric.String())
	}
	for _, b := range m.Fit.Net.Bases {
		f.Centers = append(f.Centers, b.Center)
		f.Radii = append(f.Radii, b.Radius)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// LoadModel reads a model saved with Save. Files that lack the training
// configs are rejected: without them the training points cannot be
// restored, and diagnostics such as CrossValidate would silently
// degenerate to empty statistics. A trace_len outside 0..10,000,000 or
// a metric ParseMetric does not know is malformed.
func LoadModel(r io.Reader) (*Model, error) {
	var f modelFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	if f.Format != modelFormat {
		return nil, fmt.Errorf("core: unsupported model format %d (this build reads format %d; re-save the model with a matching build)", f.Format, modelFormat)
	}
	if len(f.Centers) != len(f.Radii) || len(f.Centers) != len(f.Weights) {
		return nil, fmt.Errorf("core: malformed model: %d centers, %d radii, %d weights",
			len(f.Centers), len(f.Radii), len(f.Weights))
	}
	if f.TraceLen < 0 || f.TraceLen > maxTraceLen {
		return nil, fmt.Errorf("core: malformed model: trace_len %d, want 0 to %d", f.TraceLen, maxTraceLen)
	}
	metric, err := ParseMetric(f.Metric)
	if err != nil {
		return nil, fmt.Errorf("core: malformed model: %w", err)
	}
	if len(f.Configs) == 0 {
		return nil, fmt.Errorf("core: model file has no training configs: cannot restore training points (re-save the model with a current build)")
	}
	if len(f.Configs) != len(f.Responses) {
		return nil, fmt.Errorf("core: malformed model: %d configs but %d responses",
			len(f.Configs), len(f.Responses))
	}
	space := &design.Space{Params: f.Space}
	if err := space.CheckDecodable(); err != nil {
		return nil, fmt.Errorf("core: malformed model: %w", err)
	}
	net := &rbf.Network{Weights: f.Weights}
	for i := range f.Centers {
		if len(f.Centers[i]) != len(f.Space) || len(f.Radii[i]) != len(f.Space) {
			return nil, fmt.Errorf("core: malformed model: basis %d has wrong dimensionality", i)
		}
		// A fit floors every radius at its MinRadius, so a radius that is
		// not positive and finite never came from one; a zero radius
		// makes the basis 0/0, a NaN prediction.
		for k, r := range f.Radii[i] {
			if !(r > 0) || math.IsInf(r, 1) {
				return nil, fmt.Errorf("core: malformed model: basis %d radius %d is %v, want positive and finite", i, k, r)
			}
		}
		net.Bases = append(net.Bases, rbf.Basis{Center: f.Centers[i], Radius: f.Radii[i]})
	}
	// Cache 1/r² per basis now, before the network is shared across
	// serving goroutines: the prediction hot loop then multiplies
	// instead of dividing, with bit-identical results.
	net.Precompute()
	m := &Model{
		Name:       f.Name,
		TraceLen:   f.TraceLen,
		Metric:     metric,
		Space:      space,
		SampleSize: f.SampleSize,
		Fit: &rbf.FitResult{
			Net:   net,
			PMin:  f.PMin,
			Alpha: f.Alpha,
			AICc:  f.AICc,
		},
		Configs:   f.Configs,
		Responses: f.Responses,
	}
	// Re-encode the training points from the persisted configs so
	// training-data diagnostics (CrossValidate in particular) work on a
	// reloaded model exactly as on a freshly built one. Encode is the
	// same mapping sampleAndSimulate used at build time, so the restored
	// points are bit-identical to the originals.
	m.Points = make([]design.Point, len(f.Configs))
	for i, cfg := range f.Configs {
		m.Points[i] = m.Space.Encode(cfg)
	}
	return m, nil
}
