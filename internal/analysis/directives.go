package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// The //ssync: directive vocabulary. Directives are ordinary line
// comments, so they survive gofmt and need no build-system support:
//
//	//ssync:ignore <analyzer> <justification>
//	    Blesses an intentional exception. On the line of (or the line
//	    immediately above) a finding it suppresses that analyzer there;
//	    in a function's doc comment it suppresses the analyzer for the
//	    whole function. The justification is REQUIRED — an ignore that
//	    does not say why is itself a diagnostic, so every blessed
//	    exception documents its ownership or ordering argument in place.
//
//	//ssync:cacheline
//	    Marks a struct type as cache-line-layout-critical; padcheck
//	    verifies its layout even if it carries no pad.* field.
//
//	//ssync:pooled [note]
//	    Marks a function as a blessed pooled-buffer provider: its
//	    callers' results are tracked as pooled by poolaudit, and the
//	    ownership-establishing stores inside it are trusted.
//
//	//ssync:pooled release [note]
//	    Marks a function or method as a recycler: a call releases its
//	    receiver (a method) or its first argument (a function) back to
//	    its pool, exactly like sync.Pool.Put, so poolaudit flags any
//	    later use of the recycled value. The body is trusted like a
//	    provider's.
const (
	directivePrefix = "//ssync:"
	verbIgnore      = "ignore"
	verbCacheline   = "cacheline"
	verbPooled      = "pooled"
)

// HasMarker reports whether the comment group carries the marker
// directive //ssync:<name> (with or without trailing text).
func HasMarker(cg *ast.CommentGroup, name string) bool {
	_, ok := MarkerText(cg, name)
	return ok
}

// MarkerText returns the text following the marker directive
// //ssync:<name> in the comment group, and whether the marker is there.
func MarkerText(cg *ast.CommentGroup, name string) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		verb, rest, ok := splitDirective(c.Text)
		if ok && verb == name {
			return rest, true
		}
	}
	return "", false
}

// HasIgnore reports whether the comment group carries a well-formed
// //ssync:ignore for the named analyzer. Analyzers use it for
// declaration-site blessing (e.g. atomicmix accepts the directive on a
// field declaration to bless every access to that field).
func HasIgnore(cg *ast.CommentGroup, analyzer string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		verb, rest, ok := splitDirective(c.Text)
		if !ok || verb != verbIgnore {
			continue
		}
		name, just := splitWord(rest)
		if name == analyzer && just != "" {
			return true
		}
	}
	return false
}

// splitDirective parses a raw comment; ok reports whether it is an
// //ssync: directive at all.
func splitDirective(text string) (verb, rest string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	verb, rest = splitWord(text[len(directivePrefix):])
	return verb, rest, true
}

// splitWord splits off the first whitespace-separated word.
func splitWord(s string) (word, rest string) {
	s = strings.TrimSpace(s)
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		return s[:i], strings.TrimSpace(s[i+1:])
	}
	return s, ""
}

// ignoreScope is one blessed exception: analyzer suppressed for a line
// range of a file.
type ignoreScope struct {
	file       string
	start, end int // line range, inclusive
	analyzer   string
}

// ignoreSet is the per-package suppression table plus the diagnostics
// the directive parsing itself produced (malformed or unjustified
// directives are findings — the blessing mechanism may not silently
// rot).
type ignoreSet struct {
	scopes []ignoreScope
}

// parseDirectives walks every comment in the package, building the
// suppression table and validating directive syntax. known maps the
// analyzer names in the running suite.
func parseDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool, report func(Diagnostic)) *ignoreSet {
	set := &ignoreSet{}
	bad := func(pos token.Pos, format string, args ...any) {
		report(Diagnostic{Pos: pos, Analyzer: "directive", Message: fmt.Sprintf(format, args...)})
	}
	for _, f := range files {
		fname := fset.Position(f.Pos()).Filename
		// Function-doc directives get function scope.
		funcDoc := map[*ast.Comment]*ast.FuncDecl{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				funcDoc[c] = fd
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, rest, ok := splitDirective(c.Text)
				if !ok {
					continue
				}
				switch verb {
				case verbCacheline, verbPooled:
					// Markers; consumed by their analyzers in place.
				case verbIgnore:
					name, just := splitWord(rest)
					if name == "" {
						bad(c.Pos(), "//ssync:ignore needs an analyzer name and a justification")
						continue
					}
					if len(known) > 0 && !known[name] {
						bad(c.Pos(), "//ssync:ignore names unknown analyzer %q", name)
						continue
					}
					if just == "" {
						bad(c.Pos(), "//ssync:ignore %s needs a justification: say why the exception is sound", name)
						continue
					}
					sc := ignoreScope{file: fname, analyzer: name}
					if fd, ok := funcDoc[c]; ok {
						sc.start = fset.Position(fd.Pos()).Line
						sc.end = fset.Position(fd.End()).Line
					} else {
						// The directive's own line and the line below it,
						// so it can trail the finding or sit above it.
						line := fset.Position(c.Pos()).Line
						sc.start, sc.end = line, line+1
					}
					set.scopes = append(set.scopes, sc)
				default:
					bad(c.Pos(), "unknown directive //ssync:%s (have: ignore, cacheline, pooled)", verb)
				}
			}
		}
	}
	return set
}

// suppressed reports whether d falls inside a blessed scope.
func (s *ignoreSet) suppressed(fset *token.FileSet, d Diagnostic) bool {
	p := fset.Position(d.Pos)
	for _, sc := range s.scopes {
		if sc.analyzer == d.Analyzer && sc.file == p.Filename && sc.start <= p.Line && p.Line <= sc.end {
			return true
		}
	}
	return false
}
