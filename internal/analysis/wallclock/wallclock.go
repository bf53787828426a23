// Package wallclock defines an Analyzer that keeps the wall clock out
// of the packages whose results must be a pure function of their
// inputs: no time.Now or time.Since in the simulated-time packages
// (gpusim, planner) or in the host compute kernels (gemm, conv, fft,
// im2col).
//
// The paper reproduction derives every crossover in Figure 3 and
// Table I from *modeled* time — gpusim's device cost model and the
// planner's objective scoring. A stray time.Now in that domain
// silently mixes measured host time into modeled GPU time, the exact
// conflation DeLTA warns about, and turns a deterministic cost model
// into one that depends on the build machine's load. The kernels are
// held to the same rule: a timed choice inside them (a blocking size,
// a loop order) would make a result's float32 summation order depend
// on how loaded the host was. The serving layer (serve, obs,
// telemetry) lives in wall-clock time on purpose and is out of scope.
// There is no sanctioned crossing: host time is measured outside these
// packages, never fed back into them.
package wallclock

import (
	"go/ast"
	"slices"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"gpucnn/internal/analysis/lintutil"
)

const doc = `forbid wall-clock reads in simulated-time and kernel packages

gpusim and planner model time; time.Now/time.Since there mixes
measured host time into modeled GPU time. gemm, conv, fft and im2col
compute results that must not depend on host load. Time host work
from outside these packages.`

// Analyzer is the wallclock pass.
var Analyzer = &analysis.Analyzer{
	Name:     "wallclock",
	Doc:      doc,
	Run:      run,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
}

// clockFree lists the import-path bases that must not read the wall
// clock: the packages whose time is modeled, not measured, and the
// host kernels whose results must depend on their inputs alone.
var clockFree = []string{"gpusim", "planner", "gemm", "conv", "fft", "im2col"}

func run(pass *analysis.Pass) (any, error) {
	if !slices.ContainsFunc(clockFree, func(base string) bool {
		return lintutil.PathIs(pass.Pkg.Path(), base)
	}) {
		return nil, nil
	}
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if lintutil.IsTestFile(pass.Fset, call.Pos()) {
			return
		}
		fn := lintutil.FuncCallee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return
		}
		if name := fn.Name(); name == "Now" || name == "Since" {
			lintutil.Report(pass, "wallclock", analysis.Diagnostic{
				Pos: call.Pos(), End: call.End(),
				Message: "time." + name + " in clock-free package " + pass.Pkg.Name() +
					": its results must not depend on the wall clock; time it from outside the package",
			})
		}
	})
	return nil, nil
}
