package main

import (
	"fmt"
	"runtime"
	"time"

	"gpucnn/internal/workspace"
)

// stepper is a workload whose unit of work is one op.
type stepper interface {
	// step runs one op and returns how many items (images, sweep cells)
	// it processed. With a non-nil tracer it records its spans under
	// root. An error means the op failed or its output was wrong.
	step(tr *tracer, root int) (items int, err error)
}

// guard runs f and turns a panic inside the program into an error, so
// one failing op is counted instead of ending the run.
func guard(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// opRun is what runSteps measured.
type opRun struct {
	plain  []float64 // wall time of each untraced op, ms
	adj    []float64 // the same, adjusted to the reference speed
	traced []float64 // wall time of each traced op, ms
	refs   []float64 // reference kernel times, one before each op and one after the last, ms
	items  int
	adjSum time.Duration // adjusted time of every op that succeeded

	// Go heap and workspace activity over the untraced ops of a traced
	// run (zero in an untraced run, which reads no counters).
	mallocs, allocBytes, gcs uint64
	slabGrows                int64
}

// refSpan is how many reference times on each side of an op its
// adjustment takes the median of. One reference run can be slowed by a
// collection or a preemption that the op next to it did not see; a
// single slow one must not make its op look fast.
const refSpan = 3

// runSteps repeats ops until the window has passed, with the reference
// kernel between them. In a traced run every second op is traced, so
// traced and untraced ops see the same host conditions and their
// medians give the tracing overhead; the untraced ones also read the
// allocation counters around themselves.
func runSteps(s stepper, window time.Duration, tr *tracer, r *report) opRun {
	var run opRun
	type op struct {
		wall       time.Duration
		items      int
		traced, ok bool
	}
	var ops []op
	refs := []time.Duration{hostRef()}
	start := time.Now()
	for i := 0; time.Since(start) < window || (tr != nil && i < 2); i++ {
		traced := tr != nil && i%2 == 1
		var before runtime.MemStats
		var wsBefore workspace.Stats
		if tr != nil && !traced {
			runtime.ReadMemStats(&before)
			wsBefore = workspace.ReadStats()
		}
		opTracer, root := (*tracer)(nil), -1
		if traced {
			opTracer, root = tr, tr.begin(fmt.Sprintf("op %d", i), "", 0, -1)
		}
		t := time.Now()
		items, err := s.step(opTracer, root)
		d := time.Since(t)
		opTracer.end(root)
		if tr != nil && !traced {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			run.mallocs += after.Mallocs - before.Mallocs
			run.allocBytes += after.TotalAlloc - before.TotalAlloc
			run.gcs += uint64(after.NumGC - before.NumGC)
			run.slabGrows += workspace.ReadStats().SlabGrows - wsBefore.SlabGrows
		}
		refs = append(refs, hostRef())
		r.Attempted++
		if err != nil {
			r.fail("op %d: %v", i, err)
		}
		ops = append(ops, op{d, items, traced, err == nil})
	}
	for _, ref := range refs {
		run.refs = append(run.refs, ms(ref))
	}
	for i, o := range ops {
		if !o.ok {
			continue
		}
		// Op i ran between refs[i] and refs[i+1].
		lo, hi := max(0, i+1-refSpan), min(len(refs), i+1+refSpan)
		adj := adjust(o.wall, time.Duration(median(run.refs[lo:hi])*float64(time.Millisecond)))
		run.items += o.items
		run.adjSum += adj
		if o.traced {
			run.traced = append(run.traced, ms(o.wall))
		} else {
			run.plain = append(run.plain, ms(o.wall))
			run.adj = append(run.adj, ms(adj))
		}
	}
	r.OpMs, r.RefMs = run.plain, run.refs
	return run
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// record sets the metrics every op workload shares: the end-to-end op
// time and throughput, and in a traced run the tracing overhead,
// allocation counts and each traced layer's self time per op.
func (run opRun) record(r *report, tr *tracer, itemName string) {
	if len(run.plain) == 0 {
		return
	}
	r.set("op_p50_ms", percentile(run.adj, 0.5))
	r.set("items_per_s", float64(run.items)/run.adjSum.Seconds())
	p50 := percentile(run.plain, 0.5)
	r.note("%d untraced ops: wall p50 %.2f ms, %s; adjusted p50 %.2f ms, %s",
		len(run.plain), p50, tailNote(run.plain, "ms"), percentile(run.adj, 0.5), tailNote(run.adj, "ms"))
	r.note("%d %s, %.2f per adjusted second; reference kernel p50 %.3f ms (nominal %v), range %.3f-%.3f ms",
		run.items, itemName, float64(run.items)/run.adjSum.Seconds(),
		percentile(run.refs, 0.5), refNominal, percentile(run.refs, 0), percentile(run.refs, 1))
	if tr == nil || len(run.traced) == 0 {
		return
	}
	n := float64(len(run.plain))
	r.set("trace.overhead_ratio", percentile(run.traced, 0.5)/p50)
	r.set("mem.allocs_per_op", float64(run.mallocs)/n)
	r.set("mem.alloc_mb_per_op", float64(run.allocBytes)/n/(1<<20))
	r.set("mem.gc_cycles_per_op", float64(run.gcs)/n)
	r.set("workspace.slab_grows_per_op", float64(run.slabGrows)/n)
	r.set("workspace.high_water_mb", float64(workspace.ReadStats().HighWaterBytes)/(1<<20))
	for layer, d := range tr.layerTotals() {
		r.set(layer+"_ms", ms(d)/float64(len(run.traced)))
	}
}

// tailNote states the highest percentile the sample supports under the
// ten-samples-beyond rule, with the sample count.
func tailNote(xs []float64, unit string) string {
	q, ok := tail(len(xs))
	if !ok {
		return fmt.Sprintf("no tail percentile: %d samples leave fewer than %d beyond the median", len(xs), minBeyond)
	}
	return fmt.Sprintf("p%g %.2f %s over %d samples", q*100, percentile(xs, q), unit, len(xs))
}
