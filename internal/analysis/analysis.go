// Package analysis aggregates the repo's custom go/analysis lint suite
// — the invariants two rounds of measurement-corruption bugfixes (PR 2
// panic isolation, PR 4 span/sink hygiene) taught us to enforce by
// machine rather than by reviewer:
//
//	spanend    every Tracer.Root/Span.Child reaches End on all paths
//	errcmp     sentinel errors are tested with errors.Is, never == / !=
//	ctxbg      no context.Background() where a ctx parameter is in scope
//	rawgo      no naked goroutines in library packages (use par.Go)
//	obsstop    every obs.NewMonitor / obs.NewProfiler reaches Stop
//	lockheld   no blocking operation while a mutex is held; lock arrays
//	           are acquired in increasing index order
//	hotalloc   no allocation constructs in //hot:noalloc functions
//	atomicmix  no variable accessed both atomically and plainly
//	wallclock  no time.Now/time.Since in the gpusim/planner sim domain
//	           or the gemm/conv/fft/im2col kernels
//	bareignore every //lint:ignore names an analyzer and gives a reason
//
// cmd/lint drives the suite through go vet; see README "Static
// analysis" for running and suppressing.
package analysis

import (
	"golang.org/x/tools/go/analysis"

	"gpucnn/internal/analysis/atomicmix"
	"gpucnn/internal/analysis/ctxbg"
	"gpucnn/internal/analysis/errcmp"
	"gpucnn/internal/analysis/hotalloc"
	"gpucnn/internal/analysis/lintutil"
	"gpucnn/internal/analysis/lockheld"
	"gpucnn/internal/analysis/obsstop"
	"gpucnn/internal/analysis/rawgo"
	"gpucnn/internal/analysis/spanend"
	"gpucnn/internal/analysis/wallclock"
)

// All returns the full suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		spanend.Analyzer,
		errcmp.Analyzer,
		ctxbg.Analyzer,
		rawgo.Analyzer,
		obsstop.Analyzer,
		lockheld.Analyzer,
		hotalloc.Analyzer,
		atomicmix.Analyzer,
		wallclock.Analyzer,
		lintutil.DirectiveAnalyzer,
	}
}
