package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Sharedtask flags closures handed to the parallel engine
// (runner.Map / runner.Grid) that capture a *task.Task or
// []*task.Task without a Clone/CloneAll anywhere in the data flow.
// Parallel sweep workers may only share task values read-only; a
// captured live task that one run mutates (arrival state, segments)
// while another reads is exactly the cross-run coupling that breaks the
// byte-identical -jobs N guarantee, and the race detector only sees it
// when a test gets lucky.
//
// The analyzer accepts a capture when either the captured variable was
// built from a Clone()/CloneAll() call in the enclosing function, or
// the closure body clones the value before using it.
var Sharedtask = &analysis.Analyzer{
	Name: "sharedtask",
	Doc: "flags *task.Task / []*task.Task captured by closures passed to runner.Map/Grid " +
		"without Clone/CloneAll in the data flow",
	Run: runSharedtask,
}

func runSharedtask(pass *analysis.Pass) (any, error) {
	parents := parentMap(pass.Files)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name, ok := calleePkgFunc(pass.TypesInfo, call)
			if !ok || !pathHasSegments(path, "internal/runner") || (name != "Map" && name != "Grid") {
				return true
			}
			var lit *ast.FuncLit
			for _, arg := range call.Args {
				if fl, ok := arg.(*ast.FuncLit); ok {
					lit = fl
				}
			}
			if lit == nil {
				return true
			}
			for _, cap := range taskCaptures(pass.TypesInfo, lit) {
				if clonedBeforeCapture(pass.TypesInfo, parents, call, cap.obj) || clonedInside(pass.TypesInfo, lit, cap.obj) {
					continue
				}
				pass.Reportf(cap.use.Pos(), "%s %q captured by closure passed to runner.%s without Clone/CloneAll; "+
					"parallel runs must not share mutable tasks",
					types.TypeString(cap.obj.Type(), types.RelativeTo(pass.Pkg)), cap.obj.Name(), name)
			}
			return true
		})
	}
	return nil, nil
}

// capture is one free variable of task type used inside a closure.
type capture struct {
	obj *types.Var
	use *ast.Ident // first use inside the closure
}

// taskCaptures returns the closure's free variables whose type contains
// *task.Task, in order of first use.
func taskCaptures(info *types.Info, lit *ast.FuncLit) []capture {
	seen := map[*types.Var]bool{}
	var out []capture
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		// Free variable: declared entirely outside the literal.
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		if !containsTaskPtr(v.Type(), 0) {
			return true
		}
		seen[v] = true
		out = append(out, capture{obj: v, use: id})
		return true
	})
	return out
}

// containsTaskPtr reports whether t is *task.Task or a slice/array/map
// (of slices/...) of it, unwrapping a few levels.
func containsTaskPtr(t types.Type, depth int) bool {
	if depth > 4 {
		return false
	}
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Pointer:
		if namedIn(u.Elem(), "Task", "internal/task") {
			return true
		}
		return containsTaskPtr(u.Elem(), depth+1)
	case *types.Slice:
		return containsTaskPtr(u.Elem(), depth+1)
	case *types.Array:
		return containsTaskPtr(u.Elem(), depth+1)
	case *types.Map:
		return containsTaskPtr(u.Elem(), depth+1)
	}
	return false
}

// isCloneCall reports whether call invokes something named Clone or
// CloneAll (method or function).
func isCloneCall(call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fn.Sel.Name == "Clone" || fn.Sel.Name == "CloneAll"
	case *ast.Ident:
		return fn.Name == "Clone" || fn.Name == "CloneAll"
	}
	return false
}

// clonedBeforeCapture reports whether, in the function enclosing the
// runner call, the captured variable is assigned from an expression
// containing a Clone/CloneAll call before the call.
func clonedBeforeCapture(info *types.Info, parents map[ast.Node]ast.Node, at ast.Node, obj *types.Var) bool {
	body := enclosingFunc(parents, at)
	if body == nil {
		return false
	}
	cloned := false
	ast.Inspect(body, func(n ast.Node) bool {
		if cloned || (n != nil && n.Pos() > at.Pos()) {
			return false
		}
		var lhs []ast.Expr
		var rhs []ast.Expr
		switch s := n.(type) {
		case *ast.AssignStmt:
			lhs, rhs = s.Lhs, s.Rhs
		case *ast.ValueSpec:
			for _, name := range s.Names {
				lhs = append(lhs, name)
			}
			rhs = s.Values
		default:
			return true
		}
		for _, l := range lhs {
			id := rootIdent(l)
			if id == nil || (info.Uses[id] != obj && info.Defs[id] != obj) {
				continue
			}
			for _, r := range rhs {
				ast.Inspect(r, func(rn ast.Node) bool {
					if c, ok := rn.(*ast.CallExpr); ok && isCloneCall(c) {
						cloned = true
					}
					return !cloned
				})
			}
		}
		return !cloned
	})
	return cloned
}

// clonedInside reports whether the closure body itself clones the
// captured variable, either as a receiver (t.Clone()) or as an
// argument (task.CloneAll(templates[i])).
func clonedInside(info *types.Info, lit *ast.FuncLit, obj *types.Var) bool {
	mentions := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == types.Object(obj) {
				found = true
			}
			return !found
		})
		return found
	}
	cloned := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isCloneCall(call) {
			return !cloned
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && mentions(sel.X) {
			cloned = true
		}
		for _, arg := range call.Args {
			if mentions(arg) {
				cloned = true
			}
		}
		return !cloned
	})
	return cloned
}
