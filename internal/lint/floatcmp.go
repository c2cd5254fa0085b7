package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// floatcmpScope is where accrued-utility sums, ratios, and normalized
// metrics live; exact float equality there either encodes a hidden
// assumption ("this sum is exactly 0.0") or silently stops firing after
// an unrelated reordering changes rounding.
var floatcmpScope = []string{
	"internal/metrics", "internal/analysis", "internal/experiment", "internal/report",
	// The scheduler's PUD ordering and the timing wheel's tick maths are
	// scheduling decisions: exact float equality there changes event
	// sequences when rounding shifts.
	"internal/rua", "internal/rtime",
	// Fault-injection probabilities are compared against thresholds;
	// exact equality there flips plans when rounding drifts.
	"internal/fault",
	// The stochastic scheduler compares hashed uniforms against pick
	// probabilities, and the throughput predictor fits float models:
	// exact equality in either flips decisions on rounding drift.
	"internal/stoch", "internal/metrics/predict",
	// The streaming pipeline surfaces quantiles and rates in progress
	// lines and snapshots; exact float equality there would flip output
	// on rounding drift.
	"internal/obs",
	// The serving daemon canonicalizes client specs carrying fault and
	// scheduler probabilities; exact float equality there would split or
	// merge cache lines on rounding drift.
	"internal/serve",
}

// Floatcmp flags == and != between floating-point operands in the
// metrics/analysis/experiment packages. The NaN self-test idiom
// (x != x) is accepted. Deliberate exact comparisons — e.g. against a
// sentinel the code itself assigned — should be annotated with
// //rtlint:ignore floatcmp <why exactness holds>.
var Floatcmp = &analysis.Analyzer{
	Name: "floatcmp",
	Doc: "flags ==/!= on float operands in utility/ratio code; compare with an epsilon " +
		"or annotate why exactness holds",
	Run: runFloatcmp,
}

func runFloatcmp(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path(), floatcmpScope) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.TypesInfo, be.X) && !isFloat(pass.TypesInfo, be.Y) {
				return true
			}
			// Both sides constant: evaluated exactly at compile time.
			if isConst(pass.TypesInfo, be.X) && isConst(pass.TypesInfo, be.Y) {
				return true
			}
			// NaN test: x != x (or x == x) on the same expression.
			if types.ExprString(be.X) == types.ExprString(be.Y) {
				return true
			}
			pass.Reportf(be.OpPos, "float comparison %s %s %s: exact equality on computed floats "+
				"is order-of-operations dependent; use an epsilon or annotate why exactness holds",
				types.ExprString(be.X), be.Op, types.ExprString(be.Y))
			return true
		})
	}
	return nil, nil
}

// isFloat reports whether e's type is (an alias/named wrapper of) a
// float32/float64.
func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isConst reports whether e is a compile-time constant expression.
func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
