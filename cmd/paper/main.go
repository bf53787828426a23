// Command paper regenerates the experiments of the paper — Figures 2
// through 7, Tables I–II, the Section IV.B shape limitations and the
// reproduction scorecard — one section at a time or all of them. It is
// the end-to-end reproduction entry point referenced by EXPERIMENTS.md.
//
// Measurements fan out over a bounded worker pool (-j) with results
// placed deterministically, so the output is byte-identical at any
// parallelism. Ctrl-C cancels the remaining cells cooperatively.
//
// Usage:
//
//	paper [flags] <all|fig2|fig3|fig4|fig5|fig6|fig7|table1|table2|shapes|scorecard> [sweep]
//
// fig3 (runtime) and fig5 (peak memory) take one Figure 3 sweep —
// batch, input, filter, kernel or stride — and show all five without
// one. all prints every section but the scorecard, in the paper's
// order. scorecard grades every tracked claim of the paper PASS/FAIL
// and exits 1 if any fails.
//
// Flags:
//
//	-j N          parallel measurement workers (0 = one per CPU)
//	-timeout d    per-measurement timeout (0 = none)
//	-device name  simulated device for fig3/fig5: k40c or titanx
//	-csv          print fig3/fig5 as CSV instead of tables
//	-metrics file write telemetry (worker utilization, cell latencies)
//	              in Prometheus text format after the run ("-" for stderr)
//
// -device and -csv are rejected with any other section, all included,
// so one output never mixes devices or formats.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"gpucnn/internal/bench"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/telemetry"
	"gpucnn/internal/workload"
)

const usage = "usage: paper [flags] <all|fig2|fig3|fig4|fig5|fig6|fig7|table1|table2|shapes|scorecard> [sweep]"

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
}

// runner is one invocation's measurement settings, plus the sweep rows
// already measured: Figures 3 and 5 are two views of the same cells.
type runner struct {
	ctx    context.Context
	opt    bench.Options
	spec   gpusim.DeviceSpec
	csv    bool
	rows   map[string][]bench.Row
	failed int // scorecard claims that did not reproduce
}

// section is one printable unit of the reproduction.
type section struct {
	name   string // command-line name
	sweep  string // the Figure 3 sweep a fig3/fig5 section shows
	title  string // banner above the section; "" prints none
	render func(r *runner) string
}

// sections lists every section in the order all prints them; the
// scorecard comes last and is not part of all.
func sections() []section {
	out := []section{{name: "fig2", title: "Figure 2 — runtime breakdown of real-life CNN models",
		render: func(r *runner) string { return bench.RenderFigure2(bench.Figure2Ctx(r.ctx, r.opt)) }}}
	for _, sweep := range workload.SweepNames() {
		out = append(out,
			section{"fig3", sweep, fmt.Sprintf("Figure 3 (%s sweep) — runtime comparison", sweep),
				func(r *runner) string { return r.sweep(sweep, false) }},
			section{"fig5", sweep, fmt.Sprintf("Figure 5 (%s sweep) — peak memory usage", sweep),
				func(r *runner) string { return r.sweep(sweep, true) }})
	}
	return append(out,
		section{name: "shapes", title: "Shape limitations (Section IV.B summary)",
			render: func(*runner) string { return bench.RenderShapeMatrix() }},
		section{name: "fig4", title: "Figure 4 — hotspot kernels in convolutional layers",
			render: func(*runner) string { return bench.RenderFigure4(bench.Figure4()) }},
		section{name: "table1", title: "Table I — convolution configurations for benchmarking",
			render: tableI},
		section{name: "fig6", title: "Figure 6 — GPU performance profiling",
			render: func(r *runner) string { return bench.RenderFigure6(bench.Figure6Ctx(r.ctx, r.opt)) }},
		section{name: "fig7", title: "Figure 7 — data transfer overheads",
			render: func(r *runner) string { return bench.RenderFigure7(bench.Figure7Ctx(r.ctx, r.opt)) }},
		section{name: "table2", title: "Table II — register and shared-memory usage",
			render: func(r *runner) string { return bench.RenderTableII(bench.TableIICtx(r.ctx, r.opt)) }},
		section{name: "scorecard", render: scorecard},
	)
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	jobs := fs.Int("j", 0, "parallel measurement workers (0 = one per CPU)")
	timeout := fs.Duration("timeout", 0, "per-measurement timeout (0 = none)")
	device := fs.String("device", "k40c", "simulated device for fig3/fig5: k40c or titanx")
	csv := fs.Bool("csv", false, "print fig3/fig5 as CSV instead of tables")
	metrics := fs.String("metrics", "", "write telemetry (worker utilization, cell latencies) in Prometheus text format to this file after the run (\"-\" for stderr)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), usage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	picked, err := pick(fs.Args())
	if err != nil {
		return err
	}
	// -device and -csv change only the sweeps; set anywhere else they
	// would be ignored or mix devices and formats in one output.
	var sweepOnly string
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "device" || f.Name == "csv" {
			sweepOnly = f.Name
		}
	})
	for _, s := range picked {
		if sweepOnly != "" && s.sweep == "" {
			return fmt.Errorf("-%s applies only to fig3 and fig5, not %s", sweepOnly, s.name)
		}
	}
	spec, err := bench.SpecByName(*device)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r := &runner{
		ctx:  telemetry.WithRegistry(ctx, telemetry.Default()),
		opt:  bench.Options{Workers: *jobs, Timeout: *timeout},
		spec: spec,
		csv:  *csv,
		rows: map[string][]bench.Row{},
	}
	rule := strings.Repeat("=", 64)
	for _, s := range picked {
		if s.title != "" && !(r.csv && s.sweep != "") {
			fmt.Fprintf(w, "\n%s\n%s\n%s\n", rule, s.title, rule)
		}
		fmt.Fprint(w, s.render(r))
	}

	if *metrics != "" {
		if err := writeMetrics(*metrics, w); err != nil {
			return err
		}
	}
	if ctx.Err() != nil {
		return errors.New("interrupted; remaining cells were canceled")
	}
	if r.failed > 0 {
		return fmt.Errorf("%d claims did not reproduce", r.failed)
	}
	return nil
}

// pick resolves the positional arguments to the sections to print.
func pick(args []string) ([]section, error) {
	if len(args) == 0 || len(args) > 2 {
		return nil, errors.New(usage)
	}
	name, sweep := args[0], ""
	if len(args) == 2 {
		sweep = args[1]
		if name != "fig3" && name != "fig5" {
			return nil, fmt.Errorf("%s takes no sweep", name)
		}
		if _, ok := workload.Sweeps()[sweep]; !ok {
			return nil, fmt.Errorf("unknown sweep %q (have %v)", sweep, workload.SweepNames())
		}
	}
	var picked []section
	for _, s := range sections() {
		if (name == "all" && s.name != "scorecard") || (name == s.name && (sweep == "" || sweep == s.sweep)) {
			picked = append(picked, s)
		}
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("unknown section %q", name)
	}
	return picked, nil
}

// sweep renders one Figure 3 sweep as its runtime (Figure 3) or peak
// memory (Figure 5) view, measuring the sweep on first use.
func (r *runner) sweep(name string, memory bool) string {
	rows, ok := r.rows[name]
	if !ok {
		rows = bench.Figure3Ctx(r.ctx, name, r.spec, r.opt)
		r.rows[name] = rows
	}
	switch {
	case r.csv:
		return bench.CSVSweep(name, rows, memory) + "\n"
	case memory:
		return bench.RenderSweepMemory(name, rows)
	}
	return bench.RenderSweepTimes(name, rows)
}

func tableI(*runner) string {
	var b strings.Builder
	for _, nc := range workload.TableI() {
		fmt.Fprintf(&b, "  %s %v (channels %d)\n", nc.Name, nc.Cfg, nc.Cfg.Channels)
	}
	return b.String()
}

func scorecard(r *runner) string {
	claims := bench.ScorecardCtx(r.ctx, r.opt)
	for _, c := range claims {
		if !c.Pass {
			r.failed++
		}
	}
	return bench.RenderScorecard(claims)
}

func writeMetrics(path string, w io.Writer) error {
	if path == "-" {
		return telemetry.Default().WritePrometheus(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.Default().WritePrometheus(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}
