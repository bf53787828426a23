// Command timeline runs one training iteration of a chosen
// implementation and configuration on the simulated K40c and writes the
// kernel/transfer timeline as Chrome trace-event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev — a visual rendering of
// the kernel sequences behind the paper's Figure 4.
//
// The timeline comes from the hierarchical tracer in
// internal/telemetry: kernels and transfers nest under the engine's
// phase spans (h2d → forward → backward_data → backward_filter) inside
// one iteration span, with flow arrows linking each host→device copy to
// the first kernel that consumes it.
//
// Usage:
//
//	timeline [-impl fbfft] [-b 64] [-i 128] [-c 3] [-f 64] [-k 11] [-s 1] [-o trace.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/telemetry"
)

func main() {
	implName := flag.String("impl", "fbfft", "implementation to trace")
	b := flag.Int("b", 64, "mini-batch size")
	i := flag.Int("i", 128, "input extent")
	c := flag.Int("c", 3, "input channels")
	f := flag.Int("f", 64, "filter count")
	k := flag.Int("k", 11, "kernel extent")
	s := flag.Int("s", 1, "stride")
	out := flag.String("o", "trace.json", "output file ('-' for stdout)")
	flag.Parse()

	e, err := impls.ByName(*implName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := conv.Config{Batch: *b, Input: *i, Channels: *c, Filters: *f, Kernel: *k, Stride: *s}
	dev := gpusim.New(gpusim.TeslaK40c())

	tracer := telemetry.NewTracer()
	tracer.SetSimClock(dev.Elapsed)
	root := tracer.Root("iteration").
		SetAttr("impl", e.Name()).
		SetAttr("cfg", fmt.Sprint(cfg))
	rec := telemetry.NewRecorder()
	rec.Attach(root)
	dev.SetSink(rec)

	plan, err := e.Plan(dev, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer plan.Release()
	if err := plan.Iteration(); err != nil {
		log.Fatal(err)
	}
	root.End()

	w := os.Stdout
	if *out != "-" {
		file, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer file.Close()
		w = file
	}
	if err := tracer.WriteChrome(w); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s on %v: %d events over %v simulated -> %s\n",
		e.Name(), cfg, tracer.EventCount(), dev.Elapsed(), *out)
}
