// Command experiments regenerates every table and figure of the paper's
// evaluation (§4) plus the ablation studies, printing each as a text
// table. -scale selects between the full paper-sized runs and a quick
// reduced-cost configuration; -out additionally writes the report to a
// file; -parallel bounds the worker goroutines used to fan independent
// benchmarks and sample sizes out (0 = all CPUs, 1 = serial — the
// rendered results are identical); -only restricts to a comma-separated
// subset of experiment ids
// (table1, figure2, table3, table4, table5, figure1, figure4, figure5,
// figure6, figure7, ablations, families, adaptive, significance, power,
// validation, extended, screening, statsim).
//
// Observability (internal/obs): -report writes a machine-readable JSON
// run report (host info, per-stage wall-clock spans, pipeline counters
// such as simulations run vs. cache hits); -progress prints periodic
// counter summaries to stderr while the suite runs; -pprof serves
// net/http/pprof on the given address for live profiling. None of these
// affect the computed results.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"predperf/internal/exper"
	"predperf/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the suite; main is a thin wrapper so tests can drive the
// full CLI in-process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	scaleName := fs.String("scale", "paper", "experiment scale: paper or quick")
	out := fs.String("out", "", "also write the report to this file")
	only := fs.String("only", "", "comma-separated experiment ids to run (default: all)")
	parallel := fs.Int("parallel", 0, "worker goroutines for the fan-out (0 = all CPUs, 1 = serial); results are identical either way")
	report := fs.String("report", "", "write a JSON run report (stage timings, counters, host info) to this file")
	progress := fs.Bool("progress", false, "print periodic pipeline counters to stderr")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var scale exper.Scale
	switch *scaleName {
	case "paper":
		scale = exper.PaperScale()
	case "quick":
		scale = exper.QuickScale()
	default:
		return fmt.Errorf("unknown scale %q (want paper or quick)", *scaleName)
	}
	scale.Workers = *parallel

	if *report != "" || *progress || *pprofAddr != "" {
		obs.Enable()
		obs.Reset()
	}
	if *progress {
		stop := obs.StartProgress(os.Stderr, 2*time.Second)
		defer stop()
	}
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }

	r := exper.NewRunner(scale)
	start := time.Now()
	fmt.Fprintf(w, "predperf experiment suite — scale=%s (traces: %d instructions)\n\n", scale.Name, scale.TraceLen)

	var sectionErr error
	section := func(id string, run func() (fmt.Stringer, error)) {
		if sectionErr != nil || !sel(id) {
			return
		}
		_, end := obs.StartSpanCtx(context.Background(), "exper.section/"+id)
		t0 := time.Now()
		res, err := run()
		end()
		if err != nil {
			sectionErr = fmt.Errorf("%s: %w", id, err)
			return
		}
		fmt.Fprintf(w, "=== %s (%.1fs) ===\n%s\n", id, time.Since(t0).Seconds(), res)
	}

	section("table1", func() (fmt.Stringer, error) { return exper.RunTable1(), nil })
	section("figure2", func() (fmt.Stringer, error) { return exper.RunFigure2(r), nil })
	section("figure1", func() (fmt.Stringer, error) { return exper.RunFigure1(r, "vortex") })
	section("table3", func() (fmt.Stringer, error) { return exper.RunTable3(r) })
	section("table4", func() (fmt.Stringer, error) { return exper.RunTable4(r, "mcf") })
	section("table5", func() (fmt.Stringer, error) { return exper.RunTable5(r, "mcf", "vortex") })
	section("figure4", func() (fmt.Stringer, error) {
		benches := []string{"mcf", "twolf"}
		if scale.Name == "quick" {
			benches = scale.SweepBench
		}
		return exper.RunFigure4(r, benches...)
	})
	section("figure5", func() (fmt.Stringer, error) { return exper.RunFigure5(r, "mcf") })
	section("figure6", func() (fmt.Stringer, error) { return exper.RunFigure6(r, "vortex") })
	section("figure7", func() (fmt.Stringer, error) { return exper.RunFigure7(r, scale.SweepBench...) })
	section("ablations", func() (fmt.Stringer, error) { return exper.RunAblations(r, "mcf") })
	section("families", func() (fmt.Stringer, error) { return exper.RunFamilies(r, "mcf") })
	section("adaptive", func() (fmt.Stringer, error) { return exper.RunAdaptive(r, "mcf") })
	section("significance", func() (fmt.Stringer, error) { return exper.RunSignificance(r) })
	section("power", func() (fmt.Stringer, error) { return exper.RunPowerTable(r) })
	section("validation", func() (fmt.Stringer, error) { return exper.RunValidation(r, "mcf", "vortex") })
	section("extended", func() (fmt.Stringer, error) {
		benches := []string{"gzip", "gcc", "bzip2", "vpr"}
		return exper.RunExtended(r, benches)
	})
	section("screening", func() (fmt.Stringer, error) { return exper.RunScreening(r, "mcf") })
	section("statsim", func() (fmt.Stringer, error) { return exper.RunStatSim(r, "twolf") })
	if sectionErr != nil {
		return sectionErr
	}

	fmt.Fprintf(w, "total: %.1fs\n", time.Since(start).Seconds())

	if *report != "" {
		rep := obs.Snapshot()
		rep.Meta = map[string]string{
			"cmd":      "experiments",
			"scale":    scale.Name,
			"only":     *only,
			"parallel": fmt.Sprint(*parallel),
		}
		f, err := os.Create(*report)
		if err != nil {
			return err
		}
		if err := rep.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "run report written to %s\n", *report)
	}
	return nil
}
