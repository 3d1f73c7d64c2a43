// Package poolaudit flow-tracks sync.Pool buffers through the function
// that obtained them. The zero-allocation wire path is sound only
// because of the parse-copies-out invariant: a pooled frame buffer
// (server conn scratch, client encode/read scratch, the cluster
// client's route-index groups) is only valid until its Put, so every
// parse path must copy variable-length data out before the buffer is
// released, and the buffer itself must never escape its owner. The
// analyzer makes the escape half of that invariant a lint error: a
// pooled value stored into a struct field, sent on a channel, captured
// by a spawned goroutine, returned, or used after its Put is reported
// unless the site is blessed.
//
// Tracking is intra-procedural and conservative-by-silence: values
// laundered through helper calls are not followed. Two directives
// extend it across the seams the repo actually uses:
//
//   - //ssync:pooled on a function marks it a pooled-buffer provider —
//     its callers' results are tracked like pool.Get results, and the
//     ownership-establishing stores inside it are trusted;
//   - //ssync:pooled release marks a recycler — a call releases its
//     receiver (method) or first argument (function) like a pool.Put,
//     so a later use of the recycled value (a pending or future after
//     its Wait, say) is flagged as use-after-release;
//   - //ssync:ignore poolaudit <why> blesses a documented hand-off
//     (an owner struct that carries the buffer to a single release
//     point, a goroutine joined before release).
package poolaudit

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ssync/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolaudit",
	Doc: "sync.Pool buffers must not outlive their owner: stores into " +
		"fields, channel sends, goroutine captures, returns and " +
		"use-after-Put of pooled values are flagged; bless documented " +
		"hand-offs with //ssync:ignore poolaudit <why>, mark providers //ssync:pooled",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Provider functions of this package (results tracked as pooled)
	// and recyclers (calls release their receiver or first argument).
	providers := map[*types.Func]bool{}
	recyclers := map[*types.Func]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if text, ok := analysis.MarkerText(fd.Doc, "pooled"); ok {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					if word, _, _ := strings.Cut(text, " "); word == "release" {
						recyclers[fn] = true
					} else {
						providers[fn] = true
					}
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if analysis.HasMarker(fd.Doc, "pooled") {
				// Trusted provider: it exists to move a pooled buffer
				// into its ownership structure.
				continue
			}
			checkFunc(pass, fd, providers, recyclers)
		}
	}
	return nil
}

// checkFunc analyzes one function body.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, providers, recyclers map[*types.Func]bool) {
	// root identity: every pooled value descends from one source call;
	// aliases share the root so use-after-Put follows derived views.
	nextRoot := 0
	pooled := map[*types.Var]int{} // var → root id
	type release struct {
		end token.Pos
		how string // "its Put", or the recycler call
	}
	putAt := map[int]release{} // root id → its Put or recycling release

	// rootOf reports whether e evaluates to pooled memory and which
	// source it descends from.
	var rootOf func(e ast.Expr) (int, bool)
	rootOf = func(e ast.Expr) (int, bool) {
		switch e := analysis.Unparen(e).(type) {
		case *ast.Ident:
			if v, ok := pass.Info.Uses[e].(*types.Var); ok {
				if r, ok := pooled[v]; ok {
					return r, true
				}
			}
		case *ast.CallExpr:
			if isPoolGet(pass, e) || isProviderCall(pass, e, providers) {
				nextRoot++
				return nextRoot, true
			}
		case *ast.TypeAssertExpr:
			return rootOf(e.X)
		case *ast.StarExpr:
			return rootOf(e.X)
		case *ast.IndexExpr:
			return rootOf(e.X)
		case *ast.SliceExpr:
			return rootOf(e.X)
		case *ast.SelectorExpr:
			// A field read of a pooled struct views pooled memory.
			if s, ok := pass.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
				return rootOf(e.X)
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				return rootOf(e.X)
			}
		}
		return 0, false
	}

	// bind records assignments that alias pooled memory to variables.
	bind := func(lhs ast.Expr, root int) {
		if id, ok := analysis.Unparen(lhs).(*ast.Ident); ok {
			if v, ok := pass.Info.Defs[id].(*types.Var); ok {
				pooled[v] = root
				return
			}
			if v, ok := pass.Info.Uses[id].(*types.Var); ok {
				pooled[v] = root
			}
		}
	}

	report := func(pos token.Pos, format string, args ...any) {
		pass.Reportf(pos, format, args...)
	}

	// Single source-order walk: bindings, violations, Puts. FuncLits are
	// entered only to find bindings/uses for the goroutine-capture and
	// use-after-Put checks; deferred release closures are the idiom and
	// stay exempt.
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				walk(n.Call, true)
				return false
			case *ast.GoStmt:
				// A spawned goroutine capturing pooled memory outlives
				// the owner's control flow.
				for _, bad := range capturedPooled(pass, n.Call, pooled) {
					report(bad.Pos(), "pooled buffer %s captured by spawned goroutine; the pool may reuse it concurrently (join before release, and bless the hand-off with //ssync:ignore poolaudit <why>)", bad.Name)
				}
				return true
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						root, isP := rootOf(rhs)
						if !isP {
							continue
						}
						lhs := analysis.Unparen(n.Lhs[i])
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
								// Storing INTO pooled memory is the owner
								// filling its own scratch; storing pooled
								// memory into another object's field leaks it.
								if _, lhsPooled := rootOf(sel.X); !lhsPooled {
									report(n.Pos(), "pooled buffer stored into field %s; the buffer escapes its owning frame (copy out, or bless the ownership hand-off with //ssync:ignore poolaudit <why>)", sel.Sel.Name)
								}
							}
						}
						bind(n.Lhs[i], root)
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, val := range n.Values {
						if root, ok := rootOf(val); ok {
							if v, ok := pass.Info.Defs[n.Names[i]].(*types.Var); ok {
								pooled[v] = root
							}
						}
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					val := el
					key := ""
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						val = kv.Value
						if id, ok := kv.Key.(*ast.Ident); ok {
							key = id.Name
						}
					}
					if _, ok := rootOf(val); ok {
						report(val.Pos(), "pooled buffer stored into composite literal%s; the buffer escapes its owning frame (copy out, or bless the ownership hand-off with //ssync:ignore poolaudit <why>)", fieldSuffix(key))
					}
				}
			case *ast.SendStmt:
				if _, ok := rootOf(n.Value); ok {
					report(n.Pos(), "pooled buffer sent on a channel; only a blessed blocking hand-off may do this (//ssync:ignore poolaudit <why>)")
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if _, ok := rootOf(res); ok {
						report(res.Pos(), "pooled buffer returned to the caller; mark the provider //ssync:pooled or return a copy")
					}
				}
			case *ast.CallExpr:
				if isPoolPut(pass, n) && len(n.Args) > 0 {
					if root, ok := rootOf(n.Args[0]); ok && !inDefer {
						putAt[root] = release{n.End(), "its Put"}
					}
				}
				if x, name := recycled(pass, n, recyclers); x != nil {
					if root, ok := rootOf(x); ok && !inDefer {
						putAt[root] = release{n.End(), "its release by " + name}
					}
				}
			case *ast.Ident:
				if v, ok := pass.Info.Uses[n].(*types.Var); ok {
					if root, ok := pooled[v]; ok {
						if rel, done := putAt[root]; done && n.Pos() > rel.end {
							report(n.Pos(), "pooled buffer %s used after %s; the pool may already have handed it to another goroutine", n.Name, rel.how)
							delete(putAt, root) // one finding per release
						}
					}
				}
			}
			return true
		})
	}
	walk(fd.Body, false)
}

// fieldSuffix renders the composite-literal key when known.
func fieldSuffix(key string) string {
	if key == "" {
		return ""
	}
	return " (field " + key + ")"
}

// isPoolGet matches P.Get() with P a sync.Pool.
func isPoolGet(pass *analysis.Pass, call *ast.CallExpr) bool {
	return isPoolMethod(pass, call, "Get")
}

// isPoolPut matches P.Put(x) with P a sync.Pool.
func isPoolPut(pass *analysis.Pass, call *ast.CallExpr) bool {
	return isPoolMethod(pass, call, "Put")
}

func isPoolMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	fun, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || fun.Sel.Name != name {
		return false
	}
	sel, ok := pass.Info.Selections[fun]
	if !ok || sel.Kind() != types.MethodVal {
		return false
	}
	t := sel.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "Pool"
}

// recycled matches a call to a recycler of this package and returns
// the value it releases — the receiver of a method, the first argument
// of a function — and the recycler's name.
func recycled(pass *analysis.Pass, call *ast.CallExpr, recyclers map[*types.Func]bool) (ast.Expr, string) {
	switch fun := analysis.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[fun].(*types.Func); ok && recyclers[fn] && len(call.Args) > 0 {
			return call.Args[0], fn.Name()
		}
	case *ast.SelectorExpr:
		fn, ok := pass.Info.Uses[fun.Sel].(*types.Func)
		if !ok || !recyclers[fn] {
			return nil, ""
		}
		if sel, ok := pass.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			return fun.X, fn.Name()
		}
		if len(call.Args) > 0 {
			return call.Args[0], fn.Name()
		}
	}
	return nil, ""
}

// isProviderCall matches calls to //ssync:pooled functions of this
// package.
func isProviderCall(pass *analysis.Pass, call *ast.CallExpr, providers map[*types.Func]bool) bool {
	switch fun := analysis.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[fun].(*types.Func); ok {
			return providers[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return providers[fn]
		}
	}
	return false
}

// capturedPooled lists identifiers inside a go-statement's call (the
// function literal and its arguments) that alias pooled memory.
func capturedPooled(pass *analysis.Pass, call *ast.CallExpr, pooled map[*types.Var]int) []*ast.Ident {
	var bad []*ast.Ident
	seen := map[*types.Var]bool{}
	ast.Inspect(call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := pass.Info.Uses[id].(*types.Var); ok {
			if _, isP := pooled[v]; isP && !seen[v] {
				seen[v] = true
				bad = append(bad, id)
			}
		}
		return true
	})
	return bad
}
