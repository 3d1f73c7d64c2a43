package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ssync/internal/arch"
	"ssync/internal/bench"
	"ssync/internal/core"
)

// FiguresMain regenerates every table and figure of the paper in one run
// — the per-experiment index of DESIGN.md — and writes the report to
// stdout or a file. It is the one text front end of the simulated
// artifacts; `ssync run` serves the same experiments as JSON, CSV or a
// table of results.
func FiguresMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	id := fs.String("id", "", "run a single experiment id (default: all)")
	platform := fs.String("platform", "", "restrict to one platform model")
	out := fs.String("o", "", "write the report to a file instead of stdout")
	quick := fs.Bool("quick", false, "shorter simulated runs (noisier, much faster)")
	if code, ok := parseArgs(fs, argv); !ok {
		return code
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.Config{Deadline: 80_000, LatencyOps: 40, Reps: 2}
	}

	exps := core.Experiments()
	if *id != "" {
		e, err := core.ByID(*id)
		if err != nil {
			fmt.Fprintln(stderr, "figures:", err)
			return 2
		}
		exps = []core.Experiment{e}
	}
	var only *arch.Platform
	if *platform != "" {
		p, code := platformOrExit("figures", *platform, stderr)
		if p == nil {
			return code
		}
		only = p
	}
	selected := func(pn string) bool { return only == nil || pn == only.Name }
	runs := 0
	for _, e := range exps {
		for _, pn := range e.Platforms {
			if selected(pn) {
				runs++
			}
		}
	}
	if runs == 0 {
		fmt.Fprintf(stderr, "figures: no selected experiment covers platform %s\n", only.Name)
		return 2
	}

	report := func(w io.Writer) error {
		fmt.Fprintf(w, "%s — regenerated evaluation\n\n", core.Version)
		for _, e := range exps {
			fmt.Fprintf(w, "== %s: %s ==\n\n", e.ID, e.Title)
			for _, pn := range e.Platforms {
				if !selected(pn) {
					continue
				}
				if err := e.Run(w, pn, cfg); err != nil {
					return fmt.Errorf("%s on %s: %w", e.ID, pn, err)
				}
			}
		}
		return nil
	}
	var err error
	if *out == "" {
		err = report(stdout)
	} else {
		var f *os.File
		if f, err = os.Create(*out); err == nil {
			err = report(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "figures:", err)
		return 1
	}
	return 0
}
