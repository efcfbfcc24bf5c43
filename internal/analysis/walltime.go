package analysis

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// walltimeExempt lists the packages whose whole job is measuring wall time.
var walltimeExempt = newPathList(
	modulePath + "/internal/obs",
)

// Walltime rejects time.Now/time.Since outside the observability layer;
// deadline-handling code opts out per site with a justified
// //oasis:allow-walltime directive.
var Walltime = &analysis.Analyzer{
	Name: walltimeName,
	Doc: "forbid wall-clock reads outside internal/obs\n\n" +
		"A time.Now in a report path makes output depend on the machine rather\n" +
		"than the scenario. Timing belongs to the obs layer; genuine\n" +
		"deadline and backoff code annotates each site with\n" +
		"//oasis:allow-walltime <reason>.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runWalltime,
}

func init() {
	Walltime.Flags.Var(walltimeExempt, "exempt", "comma-separated import-path prefixes exempt from the check")
}

func runWalltime(pass *analysis.Pass) (any, error) {
	if walltimeExempt.matches(pass.Pkg.Path()) {
		return nil, nil
	}
	dir := parseDirectives(pass, walltimeName)
	defer dir.reportBare()

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || !isClockFunc(fn) {
			return
		}
		if skippablePos(pass, sel.Pos()) || dir.allowed(sel.Pos()) {
			return
		}
		pass.Reportf(sel.Pos(), "wall-clock time.%s outside obs: route timing through internal/obs or annotate deadline code with //oasis:allow-walltime <reason>", fn.Name())
	})
	return nil, nil
}
