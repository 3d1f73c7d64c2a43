// Package analysis is the static-analysis framework behind `ssync lint`:
// a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis API surface, sized to what the repo's
// invariant checkers need. The repo's hot paths are fast because of
// structural rules the compiler cannot see — pooled wire buffers must
// be copied out of before release, padded structs must keep their
// fields on the cache lines the layout audit assigned them, shard
// locks are held one at a time, seqlock words are only ever touched
// atomically. Each rule is enforced by an Analyzer in a subpackage
// (poolaudit, padcheck, lockorder, atomicmix); this package provides
// the Pass plumbing, the //ssync: directive vocabulary, and a package
// loader that type-checks the module with the standard library alone
// (go/parser + go/types over `go list -export` export data), so the
// suite runs offline with zero module dependencies. The API mirrors
// x/tools so swapping the real framework in later is mechanical.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant checker. It mirrors the x/tools
// analysis.Analyzer shape: a Run function receiving a fully type-checked
// package through a Pass and reporting findings through it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //ssync:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description `ssync lint -list` prints:
	// first line is the invariant, the rest is how it is checked.
	Doc string
	// Run executes the analyzer on one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Sizes is the gc layout model for the build target, so offset
	// computations agree with unsafe.Offsetof at compile time.
	Sizes types.Sizes

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Position resolves a diagnostic against the file set it was produced
// under.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	return fset.Position(d.Pos)
}

// Unparen strips parentheses (ast.Unparen needs go1.22; the module
// floor is 1.21).
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
