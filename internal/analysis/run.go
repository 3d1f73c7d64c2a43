package analysis

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// RunPackage executes every analyzer on one package and returns the
// surviving findings: directive parsing runs first (malformed
// directives are findings of the pseudo-analyzer "directive"), each
// analyzer reports through its Pass, and //ssync:ignore scopes filter
// the result.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }
	ignores := parseDirectives(pkg.Fset, pkg.Files, known, collect)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			Sizes:    pkg.Sizes,
			report:   collect,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if !ignores.suppressed(pkg.Fset, d) {
			kept = append(kept, d)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool {
		pi, pj := kept[i].Position(pkg.Fset), kept[j].Position(pkg.Fset)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return kept, nil
}

// RunAnalyzers executes the suite over every package, returning all
// surviving findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		diags, err := RunPackage(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}

// Main is the multichecker driver behind `ssync lint`: load the module
// packages matching the patterns (default ./...) from the current
// directory, run the suite, print findings, and exit non-zero if any
// survive. Exit codes follow the repo's CLI convention:
// 0 clean, 1 findings, 2 usage or load failure.
func Main(analyzers []*Analyzer, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssync lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	dir := fs.String("dir", ".", "module directory to analyze from")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: ssync lint [-list] [-dir dir] [packages]")
		fmt.Fprintln(stderr, "")
		fmt.Fprintln(stderr, "Machine-checks the repo's concurrency and allocation invariants.")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	pkgs, err := Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "ssync lint:", err)
		return 2
	}
	diags, err := RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "ssync lint:", err)
		return 2
	}
	if len(diags) == 0 {
		return 0
	}
	// Every package from one Load shares one file set.
	fset := pkgs[0].Fset
	for _, d := range diags {
		p := d.Position(fset)
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relPath(*dir, p.Filename), p.Line, p.Column, d.Analyzer, d.Message)
	}
	fmt.Fprintf(stderr, "ssync lint: %d finding(s)\n", len(diags))
	return 1
}

// relPath shortens name relative to dir for display, falling back to
// the absolute path when they do not nest.
func relPath(dir, name string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return name
	}
	if rel, err := filepath.Rel(abs, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
