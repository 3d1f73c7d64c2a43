package cli

import (
	"io"

	"ssync/internal/analysis"
	"ssync/internal/analysis/suite"
)

// LintMain runs the repo's static-analysis suite — the multichecker CI
// gates on — as `ssync lint`.
func LintMain(argv []string, stdout, stderr io.Writer) int {
	return analysis.Main(suite.Analyzers(), argv, stdout, stderr)
}
