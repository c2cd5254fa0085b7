package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// casloopScope is the code built on compare-and-swap retry: the
// Michael–Scott queue and the register, and their mutex twins.
var casloopScope = []string{
	"internal/lockfree", "internal/lockobj",
}

// Casloop checks that CAS retry loops can actually make progress. A
// CompareAndSwap whose expected value is loaded once outside the loop
// spins forever after the first lost race: the retry re-runs the CAS
// with the same stale expectation. The analyzer requires every CAS
// inside a for loop to derive its expected value from an atomic read of
// the same location inside some enclosing loop (constants and nil are
// exempt — re-expecting them is deliberate). For the legacy
// sync/atomic.CompareAndSwapX form it additionally flags plain,
// non-atomic reads of the CAS'd word inside the loop: branching on a
// racy read defeats the published/observed protocol the CAS encodes.
var Casloop = &analysis.Analyzer{
	Name: "casloop",
	Doc: "flags CAS retry loops that never re-load their expected value inside the loop, " +
		"and non-atomic reads of the CAS'd word in legacy sync/atomic retry loops",
	Run: runCasloop,
}

func runCasloop(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path(), casloopScope) {
		return nil, nil
	}
	parents := parentMap(pass.Files)
	info := pass.TypesInfo

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			cas, ok := casTarget(info, call)
			if !ok {
				return true
			}
			loops := enclosingLoops(parents, call)
			if len(loops) == 0 {
				return true // single-shot CAS: failing once and giving up is a valid protocol
			}
			if !expectedIsFresh(info, cas) && !anyLoopReloads(info, loops, cas.loc, call) {
				pass.Reportf(call.Pos(), "CAS retry loop never re-loads %s: the expected value %s is stale "+
					"after the first lost race, so the loop cannot make progress; "+
					"re-read the location atomically inside the loop",
					cas.loc, types.ExprString(cas.expected))
			}
			if cas.legacyField != nil {
				reportPlainReads(pass, parents, loops[0], cas, call)
			}
			return true
		})
	}
	return nil, nil
}

// casCall is one recognized compare-and-swap site.
type casCall struct {
	loc      string   // canonical spelling of the swapped location
	expected ast.Expr // the value the CAS compares against
	// legacyField is the struct field behind a sync/atomic.CompareAndSwapX
	// call, nil for the typed-atomic method form (plain access to a typed
	// atomic cannot typecheck, so only the legacy form needs rule 2).
	legacyField *types.Var
}

// casTarget recognizes both CAS spellings: the typed
// x.CompareAndSwap(old, new) method and the legacy
// atomic.CompareAndSwapX(&x, old, new) function.
func casTarget(info *types.Info, call *ast.CallExpr) (casCall, bool) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "CompareAndSwap" && len(call.Args) == 2 {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal && isAtomicType(s.Recv()) {
			return casCall{loc: types.ExprString(sel.X), expected: call.Args[0]}, true
		}
	}
	if path, name, ok := calleePkgFunc(info, call); ok && path == "sync/atomic" &&
		strings.HasPrefix(name, "CompareAndSwap") && len(call.Args) == 3 {
		if un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && un.Op == token.AND {
			c := casCall{loc: types.ExprString(un.X), expected: call.Args[1]}
			if sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr); ok {
				c.legacyField = selectedField(info, sel)
			}
			return c, true
		}
	}
	return casCall{}, false
}

// expectedIsFresh reports whether the CAS's expected value needs no
// in-loop re-load: a constant, nil, or an atomic load of the swapped
// location performed right in the argument.
func expectedIsFresh(info *types.Info, cas casCall) bool {
	e := ast.Unparen(cas.expected)
	if tv, ok := info.Types[e]; ok && (tv.Value != nil || tv.IsNil()) {
		return true
	}
	if call, ok := e.(*ast.CallExpr); ok {
		return isAtomicReadOf(info, call, cas.loc)
	}
	return false
}

// enclosingLoops returns the for/range statements around n, innermost
// first, up to the enclosing function declaration. Loops outside a
// closure still count: a retry loop may hoist its re-load one level up
// (the labeled continue-retry shape), and the load need only be
// somewhere on the repeated path.
func enclosingLoops(parents map[ast.Node]ast.Node, n ast.Node) []ast.Node {
	var out []ast.Node
	for cur := parents[n]; cur != nil; cur = parents[cur] {
		switch cur.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			out = append(out, cur)
		case *ast.FuncDecl:
			return out
		}
	}
	return out
}

// anyLoopReloads reports whether some enclosing loop body contains an
// atomic read of loc besides the CAS itself.
func anyLoopReloads(info *types.Info, loops []ast.Node, loc string, cas *ast.CallExpr) bool {
	for _, loop := range loops {
		found := false
		ast.Inspect(loop, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || call == cas {
				return true
			}
			if isAtomicReadOf(info, call, loc) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isAtomicReadOf reports whether call is an atomic operation that
// returns the current value of loc: a Load/Swap/Add/And/Or method on
// the typed atomic, or the corresponding legacy function on &loc.
func isAtomicReadOf(info *types.Info, call *ast.CallExpr, loc string) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Load", "Swap", "Add", "And", "Or":
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal &&
				isAtomicType(s.Recv()) && types.ExprString(sel.X) == loc {
				return true
			}
		}
	}
	path, name, ok := calleePkgFunc(info, call)
	if !ok || path != "sync/atomic" || len(call.Args) == 0 {
		return false
	}
	switch {
	case strings.HasPrefix(name, "Load"), strings.HasPrefix(name, "Swap"),
		strings.HasPrefix(name, "Add"), strings.HasPrefix(name, "And"), strings.HasPrefix(name, "Or"):
		if un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && un.Op == token.AND {
			return types.ExprString(un.X) == loc
		}
	}
	return false
}

// reportPlainReads flags selector accesses to the legacy CAS'd field
// inside the innermost retry loop that do not go through sync/atomic.
func reportPlainReads(pass *analysis.Pass, parents map[ast.Node]ast.Node, loop ast.Node, cas casCall, casNode *ast.CallExpr) {
	info := pass.TypesInfo
	ast.Inspect(loop, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || selectedField(info, sel) != cas.legacyField {
			return true
		}
		if isLegacyAtomicArg(info, parents, sel) {
			return true
		}
		pass.Reportf(sel.Pos(), "non-atomic read of %s inside its CAS retry loop: the CAS'd word "+
			"must only be observed through sync/atomic, or the loop branches on a racy value",
			types.ExprString(sel))
		return true
	})
}

// isLegacyAtomicArg reports whether sel occurs as &sel passed directly
// to a sync/atomic function.
func isLegacyAtomicArg(info *types.Info, parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) bool {
	un, ok := parents[sel].(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return false
	}
	call, ok := parents[un].(*ast.CallExpr)
	if !ok {
		return false
	}
	path, _, ok := calleePkgFunc(info, call)
	return ok && path == "sync/atomic"
}
