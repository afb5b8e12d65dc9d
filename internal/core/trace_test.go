package core

import (
	"bytes"
	"context"
	"testing"

	"predperf/internal/obs"
)

// TestTracedBuildBitIdentical proves the tracing instrumentation
// observes without perturbing: a build with an active request-scoped
// trace (and parallel workers, so the per-point spans actually fire
// concurrently) serializes byte-for-byte identically to an untraced
// build.
func TestTracedBuildBitIdentical(t *testing.T) {
	opt := fastOpt()
	opt.Parallel = 4
	opt.RBF.Workers = 4

	ev1, err := NewSimEvaluator("twolf", 6000)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := BuildRBFModel(ev1, 25, opt)
	if err != nil {
		t.Fatal(err)
	}

	ev2, err := NewSimEvaluator("twolf", 6000)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("determinism")
	traced, err := BuildRBFModelCtx(obs.WithTrace(context.Background(), tr), ev2, 25, opt)
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := plain.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := traced.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("traced build differs from untraced build:\nuntraced: %d bytes\ntraced:   %d bytes", a.Len(), b.Len())
	}
	if tr.Len() == 0 {
		t.Fatal("trace recorded no spans — the traced path was not exercised")
	}
}

// TestTracedBuildSpanTree checks the recorded span forest has the
// expected shape: one core.build_rbf root with core.sample,
// core.simulate, and core.fit children, and a core.sim_point span per
// design point parented under core.simulate.
func TestTracedBuildSpanTree(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	tr := obs.NewTrace("tree")
	const size = 20
	if _, err := BuildRBFModelCtx(obs.WithTrace(context.Background(), tr), ev, size, fastOpt()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	byName := map[string][]obs.SpanInfo{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	for _, name := range []string{"core.build_rbf", "core.sample", "core.simulate", "core.fit"} {
		if len(byName[name]) != 1 {
			t.Fatalf("want exactly one %s span, got %d", name, len(byName[name]))
		}
	}
	root := byName["core.build_rbf"][0]
	if root.Parent != 0 {
		t.Fatalf("core.build_rbf should be a root, parent = %d", root.Parent)
	}
	for _, name := range []string{"core.sample", "core.simulate", "core.fit"} {
		if p := byName[name][0].Parent; p != root.ID {
			t.Fatalf("%s parented under %d, want build root %d", name, p, root.ID)
		}
	}
	sim := byName["core.simulate"][0]
	points := byName["core.sim_point"]
	if len(points) != size {
		t.Fatalf("recorded %d core.sim_point spans, want %d", len(points), size)
	}
	for _, p := range points {
		if p.Parent != sim.ID {
			t.Fatalf("sim_point parented under %d, want core.simulate %d", p.Parent, sim.ID)
		}
	}
	// LHS candidate scoring and grid-cell spans ride under their stages.
	if len(byName["sample.lhs_candidate"]) != fastOpt().LHSCandidates {
		t.Fatalf("recorded %d sample.lhs_candidate spans, want %d",
			len(byName["sample.lhs_candidate"]), fastOpt().LHSCandidates)
	}
	wantCells := len(fastOpt().RBF.PMinGrid) * len(fastOpt().RBF.AlphaGrid)
	if len(byName["rbf.grid_cell"]) != wantCells {
		t.Fatalf("recorded %d rbf.grid_cell spans, want %d", len(byName["rbf.grid_cell"]), wantCells)
	}
}

// TestTracedBuildToAccuracyValidateSpans: every escalation step of a
// traced BuildToAccuracyCtx records core.validate on the caller's
// trace, next to the step's core.build_rbf under the caller's span.
func TestTracedBuildToAccuracyValidateSpans(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	ts := NewTestSet(ev, nil, 10, 3)
	tr := obs.NewTrace("escalate")
	ctx, end := obs.StartSpanCtx(obs.WithTrace(context.Background(), tr), "escalate")
	// A target no model meets, so every size is built and validated.
	res, err := BuildToAccuracyCtx(ctx, ev, []int{15, 20}, -1, ts, fastOpt())
	end()
	if err != nil || len(res) != 2 {
		t.Fatalf("BuildToAccuracyCtx = %d results, %v; want 2, nil", len(res), err)
	}
	byName := map[string][]obs.SpanInfo{}
	for _, s := range tr.Spans() {
		byName[s.Name] = append(byName[s.Name], s)
	}
	root := byName["escalate"][0]
	for _, name := range []string{"core.build_rbf", "core.validate"} {
		if len(byName[name]) != len(res) {
			t.Fatalf("recorded %d %s spans, want one per step (%d)", len(byName[name]), name, len(res))
		}
		for _, s := range byName[name] {
			if s.Parent != root.ID {
				t.Fatalf("%s parented under %d, want the caller's span %d", name, s.Parent, root.ID)
			}
		}
	}
}
