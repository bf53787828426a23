// Package errcmp defines an Analyzer that forbids comparing sentinel
// errors with == or != (or switch cases): wrapped errors — and this
// repo wraps aggressively with %w (serve wraps engine errors, the
// planner wraps candidate errors) — never compare equal to their
// sentinel, so an identity comparison against serve.ErrOverloaded or
// serve.ErrClosed is a latent bug that errors.Is does not have.
//
// A sentinel is a package-level error variable whose name matches the
// Err/errX convention. Comparisons against nil are fine and ignored.
package errcmp

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"unicode"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"gpucnn/internal/analysis/lintutil"
)

const doc = `check that sentinel errors are tested with errors.Is, not == or !=

Identity comparison against a package-level Err… variable breaks as
soon as anyone wraps the error with fmt.Errorf("…: %w", err). Use
errors.Is(err, ErrFoo) (and errors.Is in switch conditions).`

var Analyzer = &analysis.Analyzer{
	Name:     "errcmp",
	Doc:      doc,
	Run:      run,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
}

func run(pass *analysis.Pass) (any, error) {
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.Preorder([]ast.Node{(*ast.BinaryExpr)(nil), (*ast.SwitchStmt)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return
			}
			x, y := ast.Unparen(n.X), ast.Unparen(n.Y)
			if isNil(pass, x) || isNil(pass, y) {
				return
			}
			for _, side := range []ast.Expr{x, y} {
				if name, ok := sentinel(pass, side); ok {
					lintutil.Report(pass, "errcmp", analysis.Diagnostic{
						Pos: n.Pos(), End: n.End(),
						Message: fmt.Sprintf("sentinel error %s compared with %s; use errors.Is", name, n.Op),
					})
					return
				}
			}
		case *ast.SwitchStmt:
			if n.Tag == nil {
				return
			}
			tag := pass.TypesInfo.TypeOf(n.Tag)
			if tag == nil || !isErrorType(tag) {
				return
			}
			for _, clause := range n.Body.List {
				cc, ok := clause.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					if name, ok := sentinel(pass, ast.Unparen(e)); ok {
						lintutil.Report(pass, "errcmp", analysis.Diagnostic{
							Pos: e.Pos(), End: e.End(),
							Message: fmt.Sprintf("sentinel error %s used as a switch case; use errors.Is in an if/else chain", name),
						})
					}
				}
			}
		}
	})
	return nil, nil
}

// sentinel reports whether e denotes a package-level error variable
// following the Err…/err… naming convention, returning its name.
func sentinel(pass *analysis.Pass, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	if !sentinelName(v.Name()) || !isErrorType(v.Type()) {
		return "", false
	}
	return v.Name(), true
}

// sentinelName matches Err…, ErrFoo, errFoo — the package-level
// sentinel conventions — without catching ordinary locals like err.
func sentinelName(name string) bool {
	if strings.HasPrefix(name, "Err") {
		return true
	}
	return strings.HasPrefix(name, "err") && len(name) > 3 && unicode.IsUpper(rune(name[3]))
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface)
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNil
}
