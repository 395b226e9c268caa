// Command benchtables regenerates the paper's tables and figures.
//
// Usage:
//
//	benchtables -all                 # every exhibit
//	benchtables -exhibit table2      # one exhibit
//	benchtables -exhibit fig8 -workers 8 -epochs 10
//	benchtables -ablations           # the DESIGN.md §6 ablations
//	benchtables -csv                 # CSV instead of aligned text
//	benchtables -trace trace.json    # phase breakdown of a shmtrain -trace-out file
//
// The -exhibit help names every exhibit: tables 1-6, figs 7-11 and 15, and
// eq8. fig9 projects time to accuracy from the functional runs and the
// timing model; figs 12-14 are the chart forms of tables 5-6.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"shmcaffe/internal/bench"
	"shmcaffe/internal/perfmodel"
	"shmcaffe/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	hw := perfmodel.DefaultHardware()
	opts := bench.DefaultConvergenceOptions()
	var workers int

	type gen func() (*trace.Table, error)
	exhibits := []struct {
		name string
		fn   gen
	}{
		{"table1", func() (*trace.Table, error) { return bench.Table1Hardware(), nil }},
		{"fig7", func() (*trace.Table, error) { return bench.Fig7Bandwidth(hw) }},
		{"fig8", func() (*trace.Table, error) { return bench.Fig8Convergence(workers, opts) }},
		{"table2", func() (*trace.Table, error) { return bench.Table2TrainingTime(hw) }},
		{"fig9", func() (*trace.Table, error) { return bench.Fig9TimeToAccuracy(workers, 0.9, opts, hw) }},
		{"fig10", func() (*trace.Table, error) { return bench.Fig10CompComm(hw) }},
		{"fig11", func() (*trace.Table, error) { return bench.Fig11AsyncVsHybrid([]int{1, 4, 8, 16}, opts) }},
		{"table3", func() (*trace.Table, error) { return bench.Table3Configs(), nil }},
		{"table4", func() (*trace.Table, error) { return bench.Table4Models(), nil }},
		{"eq8", func() (*trace.Table, error) { return bench.Eq8Decomposition(hw), nil }},
		{"table5", func() (*trace.Table, error) { return bench.Table5ShmCaffeA(hw) }},
		{"table6", func() (*trace.Table, error) { return bench.Table6ShmCaffeH(hw) }},
		{"fig15", func() (*trace.Table, error) { return bench.Fig15AvsH(hw) }},
	}
	names := make([]string, len(exhibits))
	for i, e := range exhibits {
		names[i] = e.name
	}

	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	var (
		all       = fs.Bool("all", false, "regenerate every exhibit")
		exhibit   = fs.String("exhibit", "", "one exhibit: "+strings.Join(names, ", "))
		ablations = fs.Bool("ablations", false, "run the design-choice ablations")
		charts    = fs.Bool("charts", false, "render the timing figures as bar charts")
		csv       = fs.Bool("csv", false, "emit CSV instead of aligned text")
		outDir    = fs.String("out", "", "with -all: also write each exhibit to <dir>/<name>.txt and .csv")
		epochs    = fs.Int("epochs", 0, "override epochs for the convergence exhibits")
		perClass  = fs.Int("per-class", 0, "override per-class sample count for the convergence exhibits")
		traceFile = fs.String("trace", "", "print the per-phase breakdown of a Chrome trace written by shmtrain -trace-out")
	)
	fs.IntVar(&workers, "workers", 8, "worker count for fig8, fig9 and the fig13 chart")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *epochs > 0 {
		opts.Epochs = *epochs
	}
	if *perClass > 0 {
		opts.PerClass = *perClass
	}

	emit := func(t *trace.Table) error {
		var err error
		if *csv {
			err = t.RenderCSV(out)
		} else {
			err = t.Render(out)
		}
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(out)
		return err
	}

	ablationList := []gen{
		func() (*trace.Table, error) { return bench.AblationOverlap(hw) },
		func() (*trace.Table, error) { return bench.AblationHiddenRead(hw) },
		func() (*trace.Table, error) { return bench.AblationUpdateInterval(hw) },
		func() (*trace.Table, error) { return bench.AblationAccumulate(hw) },
		func() (*trace.Table, error) { return bench.AblationGroupSize(hw) },
		func() (*trace.Table, error) { return bench.FutureWorkMultiServer(hw) },
		func() (*trace.Table, error) { return bench.StragglerSensitivity(hw) },
		func() (*trace.Table, error) { return bench.AblationMovingRate(4, opts) },
		func() (*trace.Table, error) { return bench.AblationUpdateIntervalFunctional(4, opts) },
		func() (*trace.Table, error) { return bench.AblationLayerwiseOverlap(hw) },
		func() (*trace.Table, error) { return bench.RelatedWorkDisciplines(4, opts) },
	}

	switch {
	case *traceFile != "":
		return traceReport(out, *traceFile, *csv)
	case *charts:
		chartGens := []func() (*trace.Chart, error){
			func() (*trace.Chart, error) { return bench.Fig7Chart(hw) },
			func() (*trace.Chart, error) { return bench.Fig10Chart(hw) },
			func() (*trace.Chart, error) { return bench.Fig13Chart(workers, hw) },
			func() (*trace.Chart, error) { return bench.Fig15Chart(hw) },
		}
		for _, fn := range chartGens {
			c, err := fn()
			if err != nil {
				return err
			}
			if err := c.Render(out); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(out); err != nil {
				return err
			}
		}
		return nil
	case *exhibit != "":
		want := strings.ToLower(*exhibit)
		for _, e := range exhibits {
			if e.name == want {
				t, err := e.fn()
				if err != nil {
					return err
				}
				return emit(t)
			}
		}
		return fmt.Errorf("unknown exhibit %q (have %s)", *exhibit, strings.Join(names, ", "))
	case *ablations:
		for _, fn := range ablationList {
			t, err := fn()
			if err != nil {
				return err
			}
			if err := emit(t); err != nil {
				return err
			}
		}
		return nil
	case *all:
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
		}
		for _, e := range exhibits {
			t, err := e.fn()
			if err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			if err := emit(t); err != nil {
				return err
			}
			if *outDir != "" {
				if err := writeExhibitFiles(*outDir, e.name, t); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		fs.Usage()
		return fmt.Errorf("choose -all, -exhibit, -ablations, -charts or -trace")
	}
}

// writeExhibitFiles persists one exhibit as aligned text and CSV.
func writeExhibitFiles(dir, name string, t *trace.Table) error {
	for _, f := range []struct {
		ext    string
		render func(io.Writer) error
	}{{".txt", t.Render}, {".csv", t.RenderCSV}} {
		w, err := os.Create(filepath.Join(dir, name+f.ext))
		if err != nil {
			return err
		}
		if err := f.render(w); err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}
