// Package spanend defines an Analyzer that checks that every telemetry
// span minted by Tracer.Root or Span.Child reaches End (or EndIfOpen)
// on all control-flow paths of the creating function, unless ownership
// is handed to someone else (returned, stored, passed on, or captured
// by a closure — typically a defer).
//
// Un-ended spans are not cosmetic here: exporters walk the span tree
// and an open span under-reports its wall duration and keeps absorbing
// foreign events through any recorder still attached to it, which is
// exactly the measurement-corruption bug class serve's batch path
// guards against by hand. This analyzer makes that check mechanical.
package spanend

import (
	"fmt"
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"

	"gpucnn/internal/analysis/lintutil"
	"gpucnn/internal/analysis/paircheck"
)

const doc = `check that telemetry spans are ended on all control-flow paths

Every result of telemetry.Tracer.Root or telemetry.Span.Child must
reach .End() or .EndIfOpen() on every path through the creating
function (defer preferred), or escape to an owner that ends it.`

var Analyzer = &analysis.Analyzer{
	Name:     "spanend",
	Doc:      doc,
	Run:      run,
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
}

var spec = paircheck.Spec{
	Analyzer: "spanend",
	NewCall:  newSpanCall,
	Fluent:   map[string]bool{"SetAttr": true, "SetProc": true, "SetSim": true},
	Release:  map[string]bool{"End": true, "EndIfOpen": true},
	Hint:     ".End (defer .EndIfOpen preferred on multi-exit paths)",
}

func run(pass *analysis.Pass) (any, error) {
	return paircheck.Run(pass, spec)
}

// newSpanCall matches telemetry.Tracer.Root and telemetry.Span.Child.
func newSpanCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := lintutil.MethodCallee(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	switch fn.Name() {
	case "Root":
		if lintutil.IsNamed(recv, "telemetry", "Tracer") {
			return fmt.Sprintf("span %s", callDesc(call)), true
		}
	case "Child":
		if lintutil.IsNamed(recv, "telemetry", "Span") {
			return fmt.Sprintf("span %s", callDesc(call)), true
		}
	}
	return "", false
}

// callDesc renders the span's name argument when it is a literal, for
// friendlier diagnostics.
func callDesc(call *ast.CallExpr) string {
	if len(call.Args) == 1 {
		if lit, ok := call.Args[0].(*ast.BasicLit); ok {
			return lit.Value
		}
	}
	return "(dynamic name)"
}
