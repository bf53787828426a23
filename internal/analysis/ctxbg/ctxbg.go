// Package ctxbg defines an Analyzer that forbids minting a fresh
// context with context.Background() or context.TODO() inside library
// code that already has a context.Context parameter in scope.
//
// PR 2 threaded context.Context through every figure API precisely so
// cancellation and telemetry (the context carries the tracer, span and
// registry) flow end to end; a Background() call in the middle of that
// chain silently severs both. Package main and _test.go files are
// exempt — they are where fresh root contexts legitimately start — as
// are context-free entry points like bench.MeasureOn, which have no
// context parameter in scope.
package ctxbg

import (
	"fmt"
	"go/ast"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"gpucnn/internal/analysis/lintutil"
)

const doc = `check that library code threads ctx instead of calling context.Background

Inside a function (or closure nested in one) that has a
context.Context parameter, context.Background()/context.TODO() severs
the caller's cancellation and telemetry; pass the parameter instead.`

var Analyzer = &analysis.Analyzer{
	Name:     "ctxbg",
	Doc:      doc,
	Run:      run,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil
	}
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		fn := lintutil.FuncCallee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		if name := fn.Name(); name != "Background" && name != "TODO" {
			return true
		}
		if lintutil.IsTestFile(pass.Fset, call.Pos()) {
			return true
		}
		if param := ctxParamInScope(pass, stack); param != "" {
			lintutil.Report(pass, "ctxbg", analysis.Diagnostic{
				Pos: call.Pos(), End: call.End(),
				Message: fmt.Sprintf("context.%s() called with context.Context parameter %q in scope; thread %s instead", fn.Name(), param, param),
			})
		}
		return true
	})
	return nil, nil
}

// ctxParamInScope returns the name of a context.Context parameter of
// any function enclosing the call (closures inherit their enclosing
// function's parameters lexically), or "".
func ctxParamInScope(pass *analysis.Pass, stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			ft = f.Type
		case *ast.FuncLit:
			ft = f.Type
		default:
			continue
		}
		if ft.Params == nil {
			continue
		}
		for _, field := range ft.Params.List {
			t := pass.TypesInfo.TypeOf(field.Type)
			if t == nil || !lintutil.IsNamed(t, "context", "Context") {
				continue
			}
			for _, name := range field.Names {
				if name.Name != "_" {
					return name.Name
				}
			}
		}
	}
	return ""
}
