// Package search implements model-guided design-space exploration — the
// use the paper's conclusion proposes for its models ("accurate enough
// to be potentially used by processor architects to systematically
// explore the design space for optimal design points").
//
// Minimize scores every configuration in a candidate enumeration with a
// fitted model (microseconds per point), keeps a shortlist of the best
// predictions, and verifies the shortlist with real simulation: a pure
// arg-min over hundreds of thousands of model predictions would exploit
// model error at the corners of the space, so the returned winner is
// always simulator-confirmed.
//
// A grid search scores each configuration as the grid walk produces it
// and keeps only the shortlist, so its memory does not grow with the
// grid. Quantization can map two raw grid points to one configuration
// on some spaces (the paper space's grids have no such duplicates): the
// shortlist never holds a configuration twice, but Result.Evaluated
// counts raw points, duplicates included.
package search

import (
	"errors"
	"fmt"
	"math"

	"predperf/internal/core"
	"predperf/internal/design"
)

// Predictor scores a configuration (a fitted core.Model, or any model
// with the same contract).
type Predictor interface {
	PredictConfig(cfg design.Config) float64
}

// Options configures a search.
type Options struct {
	// Constraint rejects infeasible configurations before scoring
	// (e.g. a hardware budget). nil accepts everything.
	Constraint func(design.Config) bool
	// Shortlist is how many of the best-predicted candidates are
	// verified with real simulation (default 8).
	Shortlist int
	// Space enumerated when Candidates is nil: every combination of the
	// per-parameter level values at this grid resolution (default:
	// design.PaperSpace() at its native levels, S-params at GridLevels).
	Space      *design.Space
	GridLevels int // levels for sample-size-dependent parameters (default 5)
	// Candidates overrides grid enumeration with an explicit list.
	Candidates []design.Config
}

// Result is a verified search outcome.
type Result struct {
	Best      design.Config
	BestValue float64 // simulator-verified response of Best
	Evaluated int     // configurations (raw grid points) scored by the model
	Verified  int     // configurations simulated
	// Shortlist pairs every verified candidate with its predicted and
	// simulated responses, best-simulated first.
	Shortlist []Candidate
}

// Candidate is one verified configuration.
type Candidate struct {
	Config    design.Config
	Predicted float64
	Actual    float64
}

// Minimize finds the feasible configuration with the lowest response.
// The model ranks candidates; ev verifies the shortlist.
func Minimize(model Predictor, ev core.Evaluator, opt Options) (*Result, error) {
	if model == nil || ev == nil {
		return nil, errors.New("search: model and evaluator are required")
	}
	if opt.Shortlist <= 0 {
		opt.Shortlist = 8
	}
	res := &Result{}
	type scored struct {
		cfg design.Config
		v   float64
	}
	top := make([]scored, 0, opt.Shortlist+1)
	score := func(cfg design.Config) {
		if opt.Constraint != nil && !opt.Constraint(cfg) {
			return
		}
		res.Evaluated++
		v := model.PredictConfig(cfg)
		if math.IsNaN(v) || len(top) == opt.Shortlist && v >= top[len(top)-1].v {
			return
		}
		for _, s := range top {
			if s.cfg == cfg {
				return
			}
		}
		top = append(top, scored{cfg, v})
		for i := len(top) - 1; i > 0 && top[i].v < top[i-1].v; i-- {
			top[i], top[i-1] = top[i-1], top[i]
		}
		if len(top) > opt.Shortlist {
			top = top[:opt.Shortlist]
		}
	}
	if opt.Candidates != nil {
		for _, cfg := range opt.Candidates {
			score(cfg)
		}
	} else {
		space, gridLevels := gridDefaults(opt.Space, opt.GridLevels)
		// A space that cannot Decode (missing paper parameters) would
		// panic inside the walk; reject it with an error instead.
		if err := space.CheckDecodable(); err != nil {
			return nil, fmt.Errorf("search: cannot enumerate candidates: %w", err)
		}
		walkGrid(space, gridLevels, score)
	}
	if len(top) == 0 {
		return nil, errors.New("search: no feasible candidates")
	}
	best := math.Inf(1)
	for _, s := range top {
		actual := ev.Eval(s.cfg)
		res.Verified++
		res.Shortlist = append(res.Shortlist, Candidate{Config: s.cfg, Predicted: s.v, Actual: actual})
		if actual < best {
			best = actual
			res.Best, res.BestValue = s.cfg, actual
		}
	}
	// Order the report best-simulated first.
	for i := 1; i < len(res.Shortlist); i++ {
		for j := i; j > 0 && res.Shortlist[j].Actual < res.Shortlist[j-1].Actual; j-- {
			res.Shortlist[j], res.Shortlist[j-1] = res.Shortlist[j-1], res.Shortlist[j]
		}
	}
	return res, nil
}

// EnumerateGrid lists combinations of the space's parameter levels,
// capping every dimension at gridLevels settings (evenly spread across
// the parameter's range) so the grid stays tractable: the paper space at
// gridLevels=4 is ≈260k raw points before deduplication. Duplicate
// configurations produced by quantization are removed. gridLevels <= 1
// falls back to the default resolution of 4; a space that cannot Decode
// (missing paper parameters) yields an empty enumeration rather than a
// panic.
func EnumerateGrid(space *design.Space, gridLevels int) []design.Config {
	space, gridLevels = gridDefaults(space, gridLevels)
	if space.CheckDecodable() != nil {
		return nil
	}
	total, _ := GridPoints(space, gridLevels)
	out := make([]design.Config, 0, total)
	seen := make(map[design.Config]bool, total)
	walkGrid(space, gridLevels, func(cfg design.Config) {
		if !seen[cfg] {
			seen[cfg] = true
			out = append(out, cfg)
		}
	})
	return out
}

// walkGrid calls visit with every raw point of the grid, in
// EnumerateGrid's order and duplicates included. space must decode.
func walkGrid(space *design.Space, gridLevels int, visit func(design.Config)) {
	// Per-dimension normalized level coordinates.
	levels := make([][]float64, space.N())
	for i, p := range space.Params {
		L := dimLevels(p, gridLevels)
		ls := make([]float64, L)
		for k := 0; k < L; k++ {
			if L > 1 {
				ls[k] = float64(k) / float64(L-1)
			} else {
				ls[k] = 0.5
			}
		}
		levels[i] = ls
	}
	pt := make(design.Point, space.N())
	var walk func(dim int)
	walk = func(dim int) {
		if dim == space.N() {
			visit(space.Decode(pt, gridLevels))
			return
		}
		for _, v := range levels[dim] {
			pt[dim] = v
			walk(dim + 1)
		}
	}
	walk(0)
}

// GridPoints returns how many raw points EnumerateGrid walks for space
// and gridLevels, before deduplication: the product of the per-parameter
// level counts. ok is false when a parameter has no levels or the
// product overflows an int.
func GridPoints(space *design.Space, gridLevels int) (n int, ok bool) {
	space, gridLevels = gridDefaults(space, gridLevels)
	n = 1
	for _, p := range space.Params {
		L := dimLevels(p, gridLevels)
		if L < 1 || n > math.MaxInt/L {
			return 0, false
		}
		n *= L
	}
	return n, true
}

// gridDefaults applies EnumerateGrid's defaults: the paper space, and a
// resolution of 4 for gridLevels <= 1.
func gridDefaults(space *design.Space, gridLevels int) (*design.Space, int) {
	if space == nil {
		space = design.PaperSpace()
	}
	if gridLevels < 2 {
		gridLevels = 4
	}
	return space, gridLevels
}

// dimLevels is how many settings the grid gives parameter p: its own
// level count, capped at gridLevels, and gridLevels for a parameter whose
// levels follow the sample size.
func dimLevels(p design.Param, gridLevels int) int {
	if p.Levels == design.SampleSizeLevels || p.Levels > gridLevels {
		return gridLevels
	}
	return p.Levels
}
