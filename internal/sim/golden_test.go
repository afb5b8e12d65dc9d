package sim

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"predperf/internal/design"
	"predperf/internal/sample"
	"predperf/internal/trace"
)

// goldenPath pins the engine's exact output. Result holds only integers,
// so the file is the same on every platform. To regenerate it after an
// intended change to the timing model, delete it and run
// TestGoldenResults once: the test writes a fresh file and fails so the
// new numbers are reviewed before they are committed.
const goldenPath = "testdata/golden_results.jsonl"

// goldenInsts is the trace length of every benchmark case; the first
// fifth warms the machine up.
const goldenInsts = 8000

// farEventsBench names the hand-built miss-everywhere trace run on the
// far-event machine of TestFarEventsComplete, whose DRAM completions land
// more than 2^15 cycles ahead of the cycle that schedules them.
const farEventsBench = "far-events"

// goldenCase is one pinned simulation.
type goldenCase struct {
	Bench    string        `json:"bench"`
	Insts    int           `json:"insts"`
	Design   design.Config `json:"design"`
	Prefetch bool          `json:"prefetch"` // IL1 next-line + DL1 stride, degree 2
	Result   Result        `json:"result"`
}

func (g goldenCase) config() Config {
	if g.Bench == farEventsBench {
		return farEventConfig()
	}
	cfg := FromDesign(g.Design)
	if g.Prefetch {
		cfg.Prefetch = Prefetch{IL1NextLine: true, DL1Stride: true, Degree: 2}
	}
	cfg.WarmupInsts = g.Insts / 5
	return cfg
}

func (g goldenCase) trace() (trace.Trace, error) {
	if g.Bench == farEventsBench {
		return memTrace(g.Insts, 64<<20, 0.3), nil
	}
	return trace.Cached(g.Bench, g.Insts)
}

// goldenCases lists the pinned simulations: every benchmark over 12 LHS
// points of the paper's space, with the prefetchers off and on, plus the
// far-event machine.
func goldenCases() []goldenCase {
	space := design.PaperSpace()
	const points = 12
	pts := sample.LHS(space, points, rand.New(rand.NewSource(13)))
	var cases []goldenCase
	for _, name := range trace.Names() {
		for _, pt := range pts {
			for _, pf := range []bool{false, true} {
				cases = append(cases, goldenCase{Bench: name, Insts: goldenInsts, Design: space.Decode(pt, points), Prefetch: pf})
			}
		}
	}
	return append(cases, goldenCase{Bench: farEventsBench, Insts: 3000})
}

func readGolden(path string) ([]goldenCase, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cases []goldenCase
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		dec := json.NewDecoder(strings.NewReader(sc.Text()))
		dec.DisallowUnknownFields() // a field Result no longer has must fail loudly
		var g goldenCase
		if err := dec.Decode(&g); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		cases = append(cases, g)
	}
	return cases, sc.Err()
}

func writeGolden(t *testing.T, path string) {
	var b strings.Builder
	for _, g := range goldenCases() {
		tr, err := g.trace()
		if err != nil {
			t.Fatal(err)
		}
		g.Result = Run(g.config(), tr)
		line, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// resultDiff lists the fields, by dotted path, on which two Results
// differ.
func resultDiff(got, want Result) []string {
	var diffs []string
	var walk func(path string, g, w reflect.Value)
	walk = func(path string, g, w reflect.Value) {
		switch g.Kind() {
		case reflect.Struct:
			for i := 0; i < g.NumField(); i++ {
				walk(path+"."+g.Type().Field(i).Name, g.Field(i), w.Field(i))
			}
		case reflect.Array:
			for i := 0; i < g.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), g.Index(i), w.Index(i))
			}
		default:
			if g.Interface() != w.Interface() {
				diffs = append(diffs, fmt.Sprintf("%s: got %v, want %v", path[1:], g, w))
			}
		}
	}
	walk("", reflect.ValueOf(got), reflect.ValueOf(want))
	return diffs
}

// TestGoldenResults requires every field of every pinned Result to come
// out bit-identical: the simulator's speed may change, its answers may
// not.
func TestGoldenResults(t *testing.T) {
	cases, err := readGolden(goldenPath)
	if errors.Is(err, fs.ErrNotExist) {
		writeGolden(t, goldenPath)
		t.Fatalf("wrote %s; review and commit it", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := len(goldenCases()); len(cases) != want {
		t.Fatalf("%s holds %d cases, want %d", goldenPath, len(cases), want)
	}
	for _, g := range cases {
		tr, err := g.trace()
		if err != nil {
			t.Fatal(err)
		}
		if diffs := resultDiff(Run(g.config(), tr), g.Result); len(diffs) > 0 {
			t.Errorf("%s/%d %v prefetch=%v:\n  %s", g.Bench, g.Insts, g.Design, g.Prefetch, strings.Join(diffs, "\n  "))
		}
	}
}
