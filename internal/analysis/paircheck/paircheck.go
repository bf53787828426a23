// Package paircheck is the control-flow engine behind the spanend
// analyzer (its lockflow layer serves lockheld): a resource minted by
// a "creation" call must reach a releasing use on every path from its
// creation to every return of the enclosing function.
//
// The engine is modeled on vet's lostcancel pass: creations bound to a
// local variable are tracked through the function's CFG (provided by
// the ctrlflow pass) and a diagnostic is emitted when some path reaches
// a return with the resource still open. Unlike lostcancel, not every
// reference to the variable counts as a release: a method call on the
// tracked value (span.SetAttr, arena.Float32) leaves the resource open,
// while handing the value to another function, returning it, storing
// it, or capturing it in a closure transfers ownership and ends
// tracking — that conservatism is what keeps "span stored in a struct
// and ended by its owner" from being a false positive.
package paircheck

import (
	"fmt"
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"gpucnn/internal/analysis/lintutil"
)

// Spec configures one pairing discipline.
type Spec struct {
	// Analyzer is the analyzer name, used to honour //lint:ignore.
	Analyzer string

	// NewCall reports whether call mints a tracked resource and, if so,
	// describes it for diagnostics (e.g. `span "batch"`).
	NewCall func(pass *analysis.Pass, call *ast.CallExpr) (what string, ok bool)

	// Fluent lists methods that return the receiver itself, so chain
	// tracking continues through them (Span.SetAttr and friends).
	Fluent map[string]bool

	// Release lists methods on the resource that close it (Span.End).
	// Passing the value to a function also ends tracking, through the
	// escape rule.
	Release map[string]bool

	// Hint names the releasing call in diagnostics, e.g.
	// "End (defer preferred)".
	Hint string
}

// Run executes the pairing check over every function in the pass.
func Run(pass *analysis.Pass, spec Spec) (any, error) {
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		runFunc(pass, spec, n)
	})
	return nil, nil
}

// report emits a formatted diagnostic at n, honouring //lint:ignore.
func report(pass *analysis.Pass, spec Spec, n ast.Node, format string, args ...any) {
	lintutil.Report(pass, spec.Analyzer, analysis.Diagnostic{
		Pos: n.Pos(), End: n.End(),
		Message: fmt.Sprintf(format, args...),
	})
}

// tracked is one creation bound to a local variable.
type tracked struct {
	v    *types.Var
	stmt ast.Node // the AssignStmt/ValueSpec that defines v
	what string
}

// runFunc analyzes a single named or literal function. Nested function
// literals are skipped here; the inspector visits them separately.
// Test files are exempt: unit tests legitimately construct half-open
// resources (telemetry's own span tests assert Ended() == false).
func runFunc(pass *analysis.Pass, spec Spec, node ast.Node) {
	if lintutil.IsTestFile(pass.Fset, node.Pos()) {
		return
	}
	var funcScope *types.Scope
	switch v := node.(type) {
	case *ast.FuncDecl:
		funcScope = pass.TypesInfo.Scopes[v.Type]
	case *ast.FuncLit:
		funcScope = pass.TypesInfo.Scopes[v.Type]
	}
	if funcScope == nil {
		return
	}

	var vars []tracked

	stack := make([]ast.Node, 0, 32)
	ast.Inspect(node, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			if len(stack) > 0 {
				return false // analyzed on its own visit
			}
		case nil:
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)

		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		what, ok := spec.NewCall(pass, call)
		if !ok {
			return true
		}

		// Climb the method chain built on the creation's result:
		// fluent methods keep the resource flowing, a release method
		// closes it inline, and any other method consumes the value
		// with the resource still open.
		top := len(stack) - 1
		for top >= 3 {
			sel, ok := stack[top-1].(*ast.SelectorExpr)
			if !ok || sel.X != stack[top] {
				break
			}
			outer, ok := stack[top-2].(*ast.CallExpr)
			if !ok || outer.Fun != sel {
				break
			}
			m := sel.Sel.Name
			if spec.Release[m] {
				return true // released inline: t.Root("x").SetAttr(...).End()
			}
			if !spec.Fluent[m] {
				report(pass, spec, call,
					"result of %s is consumed by .%s with the resource still open; call %s first",
					what, m, spec.Hint)
				return true
			}
			top -= 2
		}

		// stack[top] is the outermost chain expression; classify what
		// receives its value.
		if top < 1 {
			return true
		}
		switch parent := stack[top-1].(type) {
		case *ast.ExprStmt:
			report(pass, spec, call,
				"result of %s is discarded; call %s on it", what, spec.Hint)
		case *ast.AssignStmt:
			if id := lhsFor(parent.Lhs, parent.Rhs, stack[top].(ast.Expr)); id != nil {
				if id.Name == "_" {
					report(pass, spec, call,
						"result of %s is assigned to the blank identifier; call %s on it", what, spec.Hint)
					return true
				}
				if v := localVar(pass, funcScope, id); v != nil {
					vars = append(vars, tracked{v: v, stmt: parent, what: what})
				}
			}
		case *ast.ValueSpec:
			if id := lhsIdentFor(parent.Names, parent.Values, stack[top].(ast.Expr)); id != nil && id.Name != "_" {
				if v := localVar(pass, funcScope, id); v != nil {
					vars = append(vars, tracked{v: v, stmt: parent, what: what})
				}
			}
		default:
			// Argument, return value, composite literal, channel send,
			// …: the value escapes and its new owner is responsible.
		}
		return true
	})

	if len(vars) == 0 {
		return
	}

	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	var g *cfg.CFG
	switch node := node.(type) {
	case *ast.FuncDecl:
		g = cfgs.FuncDecl(node)
	case *ast.FuncLit:
		g = cfgs.FuncLit(node)
	}
	if g == nil {
		return
	}

	for _, tr := range vars {
		if ret := leakPath(pass, spec, g, tr); ret != nil {
			line := pass.Fset.Position(tr.stmt.Pos()).Line
			lintutil.Report(pass, spec.Analyzer, analysis.Diagnostic{
				Pos: tr.stmt.Pos(), End: tr.stmt.End(),
				Message: fmt.Sprintf("%s assigned to %s does not reach %s on all paths", tr.what, tr.v.Name(), spec.Hint),
			})
			pos, end := ret.Pos(), ret.End()
			if pass.Fset.File(pos) != pass.Fset.File(end) {
				end = pos // guard against synthetic returns past EOF
			}
			lintutil.Report(pass, spec.Analyzer, analysis.Diagnostic{
				Pos: pos, End: end,
				Message: fmt.Sprintf("this return may be reached without releasing %s defined on line %d", tr.v.Name(), line),
			})
		}
	}
}

// lhsFor returns the assignment target aligned with rhs, or nil.
func lhsFor(lhs, rhs []ast.Expr, target ast.Expr) *ast.Ident {
	if len(lhs) != len(rhs) {
		return nil
	}
	for i, r := range rhs {
		if r == target {
			id, _ := lhs[i].(*ast.Ident)
			return id
		}
	}
	return nil
}

// lhsIdentFor is lhsFor for var declarations.
func lhsIdentFor(names []*ast.Ident, values []ast.Expr, target ast.Expr) *ast.Ident {
	if len(names) != len(values) {
		return nil
	}
	for i, v := range values {
		if v == target {
			return names[i]
		}
	}
	return nil
}

// localVar resolves id to a variable declared inside the function;
// wider-scoped variables are assumed to have other owners.
func localVar(pass *analysis.Pass, funcScope *types.Scope, id *ast.Ident) *types.Var {
	if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && funcScope.Contains(v.Pos()) {
		return v
	}
	return nil
}

// leakPath searches the CFG for a path from the defining statement to a
// return along which the tracked variable is never released (and never
// escapes). It returns the offending return statement, or nil.
func leakPath(pass *analysis.Pass, spec Spec, g *cfg.CFG, tr tracked) *ast.ReturnStmt {
	// released reports whether stmts contain a use of v that releases
	// the resource or transfers ownership.
	released := func(stmts []ast.Node) bool {
		found := false
		for _, stmt := range stmts {
			if found {
				break
			}
			st := make([]ast.Node, 0, 16)
			ast.Inspect(stmt, func(n ast.Node) bool {
				if n == nil {
					st = st[:len(st)-1]
					return true
				}
				st = append(st, n)
				if found {
					return false
				}
				id, ok := n.(*ast.Ident)
				if !ok || pass.TypesInfo.Uses[id] != tr.v {
					return true
				}
				if classifyUse(spec, st) {
					found = true
				}
				return true
			})
		}
		return found
	}

	memo := make(map[*cfg.Block]bool)
	blockReleases := func(b *cfg.Block) bool {
		r, ok := memo[b]
		if !ok {
			r = released(b.Nodes)
			memo[b] = r
		}
		return r
	}

	// Locate the defining block and the statements after the creation.
	var defblock *cfg.Block
	var rest []ast.Node
outer:
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n == tr.stmt {
				defblock = b
				rest = b.Nodes[i+1:]
				break outer
			}
		}
	}
	if defblock == nil {
		return nil // e.g. dead code: the creation never executes
	}

	if released(rest) {
		return nil
	}
	if ret := defblock.Return(); ret != nil {
		return ret
	}

	seen := make(map[*cfg.Block]bool)
	var search func(blocks []*cfg.Block) *ast.ReturnStmt
	search = func(blocks []*cfg.Block) *ast.ReturnStmt {
		for _, b := range blocks {
			if seen[b] {
				continue
			}
			seen[b] = true
			if blockReleases(b) {
				continue
			}
			if ret := b.Return(); ret != nil {
				return ret
			}
			if ret := search(b.Succs); ret != nil {
				return ret
			}
		}
		return nil
	}
	return search(defblock.Succs)
}

// classifyUse decides whether the variable reference at the top of the
// stack releases the resource or transfers its ownership. Method calls
// on the value (other than Release methods, reached through any run of
// Fluent methods) keep the resource open; every other kind of use —
// function argument, return value, store, closure capture — counts as
// an ownership transfer.
func classifyUse(spec Spec, stack []ast.Node) bool {
	// A reference inside a nested function literal is a capture; the
	// closure (often a defer) owns the release from here on.
	for _, n := range stack[:len(stack)-1] {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}

	top := len(stack) - 1
	for {
		if top == 0 {
			// The fluent chain (or the bare variable) is the entire
			// CFG node — go/cfg stores an ExprStmt's expression, not
			// the statement — so the resource is still open.
			return false
		}
		sel, ok := stack[top-1].(*ast.SelectorExpr)
		if !ok || sel.X != stack[top] {
			// Not a method-call receiver. A bare expression statement
			// (a fluent chain that petered out) leaves the resource
			// open; any other context hands the value on.
			_, isStmt := stack[top-1].(*ast.ExprStmt)
			return !isStmt
		}
		if top == 1 {
			return true // method value at the node root: treat as escape
		}
		call, ok := stack[top-2].(*ast.CallExpr)
		if !ok || call.Fun != sel {
			return true // method value like f := sp.End: treat as escape
		}
		m := sel.Sel.Name
		if spec.Release[m] {
			return true
		}
		if !spec.Fluent[m] {
			return false // carve/setter call: resource still open
		}
		top -= 2
	}
}
