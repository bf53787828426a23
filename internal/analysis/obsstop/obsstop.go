// Package obsstop defines an Analyzer that checks that every SLO
// monitor or profiler minted by obs.NewMonitor / obs.NewProfiler
// reaches Stop on all control-flow paths of the creating function,
// unless ownership is handed to someone else (returned, stored in a
// struct, passed on, or captured by a closure — typically a defer).
//
// Both types own background goroutines when running on the wall clock:
// a leaked monitor keeps evaluating its objectives forever, and a
// leaked profiler keeps taking 200 ms CPU profiles — which does not
// just waste cycles but perturbs the very latency distributions the
// SLOs are judging. Stop is also what flushes a monitor out of its
// plane's dashboard; see serve.Fleet.Close for the house pattern.
package obsstop

import (
	"go/ast"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"

	"gpucnn/internal/analysis/lintutil"
	"gpucnn/internal/analysis/paircheck"
)

const doc = `check that obs monitors and profilers reach Stop on all paths

Every result of obs.NewMonitor or obs.NewProfiler must reach .Stop()
on every path through the creating function (defer preferred), or
escape to an owner that stops it.`

var Analyzer = &analysis.Analyzer{
	Name:     "obsstop",
	Doc:      doc,
	Run:      run,
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
}

var spec = paircheck.Spec{
	Analyzer: "obsstop",
	NewCall:  newObsCall,
	Release:  map[string]bool{"Stop": true},
	Hint:     ".Stop (defer preferred)",
}

func run(pass *analysis.Pass) (any, error) {
	return paircheck.Run(pass, spec)
}

// newObsCall matches the package-level obs.NewMonitor and
// obs.NewProfiler constructors.
func newObsCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := lintutil.FuncCallee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || !lintutil.PathIs(fn.Pkg().Path(), "obs") {
		return "", false
	}
	switch fn.Name() {
	case "NewMonitor":
		return "monitor from obs.NewMonitor", true
	case "NewProfiler":
		return "profiler from obs.NewProfiler", true
	}
	return "", false
}
