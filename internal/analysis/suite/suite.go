// Package suite registers the repo's analyzer set — the single list
// shared by the `ssync lint` subcommand and the lint-clean meta-test,
// so a new analyzer added here gates everywhere at once.
package suite

import (
	"ssync/internal/analysis"
	"ssync/internal/analysis/atomicmix"
	"ssync/internal/analysis/lockorder"
	"ssync/internal/analysis/padcheck"
	"ssync/internal/analysis/poolaudit"
)

// Analyzers returns the full suite in stable (alphabetical) order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicmix.Analyzer,
		lockorder.Analyzer,
		padcheck.Analyzer,
		poolaudit.Analyzer,
	}
}
