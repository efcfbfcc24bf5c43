package analysis

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
)

// poolPkg is the package whose arena constructors poolpair tracks.
var poolPkg = newPathList(modulePath + "/internal/tensor")

// PoolPair verifies that every tensor drawn from the workspace arena
// (tensor.NewPooled, tensor.NewPooledRaw, (*Tensor).ClonePooled) reaches
// Release on every path or visibly transfers ownership.
var PoolPair = &analysis.Analyzer{
	Name: poolpairName,
	Doc: "pair every tensor.NewPooled/NewPooledRaw/ClonePooled with a Release on all paths\n\n" +
		"A pooled tensor that leaks on an early-return path silently defeats the\n" +
		"workspace arena: allocation volume starts scaling with population size\n" +
		"again. Acquired tensors must be Released (directly or deferred) on every\n" +
		"path, or ownership must visibly transfer (returned, stored, or passed).",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      runPoolPair,
}

func init() {
	PoolPair.Flags.Var(poolPkg, "pkg", "import path(s) of the tensor package providing NewPooled/NewPooledRaw/ClonePooled/Release")
}

func runPoolPair(pass *analysis.Pass) (any, error) {
	return runPairFlow(pass, pairRule{
		name:    poolpairName,
		what:    "pooled tensor",
		release: "Release",
		remedy:  "call Release (or defer it), transfer ownership, or annotate //oasis:allow-poolpair <reason>",
		acquire: func(pass *analysis.Pass, call *ast.CallExpr) (int, bool) {
			fn := typeutilCallee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || !poolPkg.matches(fn.Pkg().Path()) {
				return 0, false
			}
			switch fn.Name() {
			case "NewPooled", "NewPooledRaw":
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					return 0, true
				}
			case "ClonePooled":
				return 0, true
			}
			return 0, false
		},
	})
}
