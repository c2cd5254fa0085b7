package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// maporderScope is where map iteration order can leak into rendered
// tables, metrics, or scheduling decisions.
var maporderScope = []string{
	"internal/sim", "internal/rua", "internal/sched",
	"internal/experiment", "internal/metrics", "internal/analysis", "internal/multi",
	"internal/trace", "internal/report", "internal/rtime",
	// The fault planner expands scenario maps into injection schedules:
	// a map-order leak there changes the event sequence between runs.
	"internal/fault",
	// The stochastic-scheduler planner hashes (seed, cpu, tick) into
	// preemption decisions; a map walk feeding those decisions would
	// reintroduce the nondeterminism the hash exists to exclude.
	"internal/stoch",
	// The obs pipeline folds every run into the rendered artifacts; a
	// map walk there would make the digest differ between runs.
	"internal/obs",
	// The serving daemon's conformance contract is byte-identity with
	// the batch CLI: a map walk feeding an artifact listing, an event
	// feed, or a canonical spec rendering would break it per run.
	"internal/serve",
}

// Maporder flags `range` over a map in the simulator and experiment
// packages. Go randomizes map iteration order per run, so any map walk
// whose side effects reach output, charged-operation counts, or
// scheduling decisions silently breaks the byte-identical-runs
// guarantee. The one blessed idiom is collect-then-sort: a loop that
// only appends keys/values to a slice which is sorted (sort.* or
// slices.*) later in the same function is accepted without annotation.
var Maporder = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flags range over a map in deterministic simulator/experiment code; " +
		"iterate a sorted key slice instead, or collect-then-sort (accepted automatically)",
	Run: runMaporder,
}

func runMaporder(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path(), maporderScope) {
		return nil, nil
	}
	parents := parentMap(pass.Files)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if collectThenSort(pass.TypesInfo, parents, rs) {
				return true
			}
			pass.Reportf(rs.For, "range over map %s: iteration order is randomized per run; "+
				"iterate sorted keys, or sort the collected result in this function",
				types.ExprString(rs.X))
			return true
		})
	}
	return nil, nil
}

// collectThenSort recognizes the blessed deterministic idiom: every
// statement of the loop body either appends to one slice variable or is
// a sort.*/slices.* call, and a later statement in the enclosing
// function sorts that slice.
func collectThenSort(info *types.Info, parents map[ast.Node]ast.Node, rs *ast.RangeStmt) bool {
	var target types.Object
	for _, stmt := range rs.Body.List {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			// Exactly `x = append(x, ...)` (or x := append(x, ...)).
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			lhs, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok {
				return false
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "append" {
				return false
			}
			obj := info.Uses[lhs]
			if obj == nil {
				obj = info.Defs[lhs]
			}
			if obj == nil || (target != nil && target != obj) {
				return false
			}
			target = obj
		case *ast.ExprStmt:
			// Normalization inside the body (e.g. sort.Ints(g)) is fine.
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			if !isSortCall(info, call) {
				return false
			}
		default:
			return false
		}
	}
	if target == nil {
		return false
	}

	// Find the loop's statement position in its enclosing block and look
	// for a sort of the target after it, anywhere down the function.
	body := enclosingFunc(parents, rs)
	if body == nil {
		return false
	}
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		if !isSortCall(info, call) || len(call.Args) == 0 {
			return true
		}
		if id := rootIdent(call.Args[0]); id != nil && (info.Uses[id] == target || info.Defs[id] == target) {
			sorted = true
		}
		return true
	})
	return sorted
}

// isSortCall reports whether call invokes anything in sort or slices.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	path, _, ok := calleePkgFunc(info, call)
	return ok && (path == "sort" || path == "slices")
}
