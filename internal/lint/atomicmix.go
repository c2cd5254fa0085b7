package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// atomicmixScope is the code that implements or drives the lock-free
// protocols, where a single plain access to a CAS-managed word is a
// data race the race detector only catches if a test happens to
// interleave it.
var atomicmixScope = []string{
	"internal/lockfree", "internal/lockobj", "internal/runner",
}

// Atomicmix flags struct fields that mix access disciplines: a field
// passed to the legacy sync/atomic functions (atomic.AddInt64(&s.f, ..))
// must never also be read or written plainly, and a typed atomic field
// (atomic.Int64, atomic.Pointer[T], ...) must only be touched through
// its methods — copying or reassigning it as a value tears the
// synchronization.
var Atomicmix = &analysis.Analyzer{
	Name: "atomicmix",
	Doc: "flags struct fields accessed both via sync/atomic and via plain read/write, " +
		"and typed atomic values copied or reassigned instead of used through methods",
	Run: runAtomicmix,
}

func runAtomicmix(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path(), atomicmixScope) {
		return nil, nil
	}
	parents := parentMap(pass.Files)

	// Pass 1: fields whose address is taken for a legacy sync/atomic
	// call. atomicSels records the exact selector nodes so pass 2 does
	// not double-count them as plain accesses.
	atomicAt := map[*types.Var]token.Pos{}
	atomicSels := map[*ast.SelectorExpr]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, _, ok := calleePkgFunc(pass.TypesInfo, call)
			if !ok || path != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := un.X.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if fld := selectedField(pass.TypesInfo, sel); fld != nil {
					atomicSels[sel] = true
					if _, seen := atomicAt[fld]; !seen {
						atomicAt[fld] = sel.Pos()
					}
				}
			}
			return true
		})
	}

	// Pass 2: plain accesses to those same fields, and value copies of
	// typed atomics.
	reportedMix := map[*types.Var]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.SelectorExpr:
				if atomicSels[e] {
					return true
				}
				fld := selectedField(pass.TypesInfo, e)
				if fld == nil {
					return true
				}
				if isAtomicType(fld.Type()) {
					checkTypedAtomicUse(pass, parents, e)
					return true
				}
				if pos, ok := atomicAt[fld]; ok && !reportedMix[fld] {
					reportedMix[fld] = true
					pass.Reportf(e.Pos(), "field %s is accessed via sync/atomic at %s but read/written plainly here; "+
						"every access to an atomic word must go through sync/atomic",
						fld.Name(), pass.Fset.Position(pos))
				}
			case *ast.IndexExpr:
				// Element of a []atomic.T / [N]atomic.T field: same
				// methods-only rule as a direct typed atomic field.
				if tv, ok := pass.TypesInfo.Types[e]; ok && tv.IsValue() && isAtomicType(tv.Type) {
					if _, isSel := e.X.(*ast.SelectorExpr); isSel {
						checkTypedAtomicUse(pass, parents, e)
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// isAtomicType reports whether t is one of sync/atomic's typed values
// (Int64, Uint64, Bool, Value, Pointer[T], ...).
func isAtomicType(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// checkTypedAtomicUse flags e (an expression of typed-atomic type
// rooted at a struct field) unless it is used as a method receiver or
// has its address taken.
func checkTypedAtomicUse(pass *analysis.Pass, parents map[ast.Node]ast.Node, e ast.Expr) {
	parent := parents[e]
	for {
		p, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		parent = parents[p]
	}
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		if p.X == e {
			return // method call: s.f.Load(), s.cells[i].Store(..)
		}
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			return // &s.f passed as *atomic.T
		}
	case *ast.IndexExpr:
		if p.X == e {
			return // indexing a slice/array field; element checked separately
		}
	}
	pass.Reportf(e.Pos(), "atomic value %s used as a plain value; "+
		"typed atomics must only be touched through their methods (Load/Store/CAS) or by address",
		types.ExprString(e))
}
