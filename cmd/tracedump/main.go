// Command tracedump runs simulated training iterations of one of the
// paper's models and dumps the full telemetry of the run: a
// hierarchical Chrome trace (run → model pass → layer → engine phase →
// kernel/transfer, loadable in chrome://tracing or ui.perfetto.dev)
// and a metrics snapshot with per-layer latency histograms in
// Prometheus text format — the layer-attributed view of the paper's
// Figures 2 and 4.
//
// Usage:
//
//	tracedump [-model alexnet] [-impl cuDNN] [-b 128] [-iters 1]
//	          [-trace trace.json] [-metrics metrics.prom] [-json metrics.json]
//	          [-since 30ms] [-last 25ms] [-http :8080]
//
// -since and -last window the trace by simulated time: -since keeps
// everything from that point on, -last keeps the run's tail, and both
// together keep the slice [since, since+last). Spans overlapping the
// window are kept whole.
//
// With -http the process keeps running after the dump, serving
// /metrics (Prometheus), /metrics.json, /trace (always the full trace;
// the window applies to the file dump) and the /debug/dash dashboard.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"

	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/models"
	"gpucnn/internal/nn"
	"gpucnn/internal/obs"
	"gpucnn/internal/telemetry"
)

func buildModel(name string, eng impls.Engine) (*models.Model, error) {
	switch strings.ToLower(name) {
	case "alexnet":
		return models.AlexNet(eng), nil
	case "vgg19", "vgg":
		return models.VGG19(eng), nil
	case "googlenet":
		return models.GoogLeNet(eng), nil
	case "overfeat":
		return models.OverFeat(eng), nil
	case "lenet5", "lenet":
		return models.LeNet5(eng), nil
	}
	return nil, fmt.Errorf("unknown model %q (have alexnet, vgg19, googlenet, overfeat, lenet5)", name)
}

func writeTo(path string, f func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return f(os.Stdout)
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// simulate runs the training iterations, converting the nn layer's
// panics (device OOM on configurations a 12 GB card cannot hold, the
// paper's "program crush" cases) into a plain error.
func simulate(ctx *nn.Context, model *models.Model, b, iters int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	for i := 0; i < iters; i++ {
		model.Net.SimulateIteration(ctx, model.InputShape(b))
	}
	return nil
}

func main() {
	modelName := flag.String("model", "alexnet", "model to run (alexnet, vgg19, googlenet, overfeat, lenet5)")
	implName := flag.String("impl", "cuDNN", "convolution engine")
	b := flag.Int("b", 128, "mini-batch size")
	iters := flag.Int("iters", 1, "training iterations to simulate")
	traceOut := flag.String("trace", "trace.json", "Chrome trace output ('-' for stdout, '' to skip)")
	since := flag.Duration("since", 0, "keep trace events from this simulated time on")
	last := flag.Duration("last", 0, "keep only the last span of simulated time (with -since: the window [since, since+last))")
	metricsOut := flag.String("metrics", "metrics.prom", "Prometheus metrics output ('-' for stdout, '' to skip)")
	jsonOut := flag.String("json", "", "JSON metrics output ('-' for stdout, '' to skip)")
	httpAddr := flag.String("http", "", "serve /metrics and /trace on this address after the run")
	flag.Parse()

	eng, err := impls.ByName(*implName)
	if err != nil {
		log.Fatal(err)
	}
	model, err := buildModel(*modelName, eng)
	if err != nil {
		log.Fatal(err)
	}

	dev := gpusim.New(gpusim.TeslaK40c())
	tracer := telemetry.NewTracer()
	reg := telemetry.NewRegistry()
	ctx := nn.NewContext(dev, true)

	run := tracer.Root("run").
		SetAttr("impl", eng.Name()).
		SetAttr("batch", fmt.Sprint(*b))
	modelSpan := run.Child("model:" + model.Net.Name)
	ctx.AttachTelemetry(modelSpan, reg)

	if err := simulate(ctx, model, *b, *iters); err != nil {
		log.Fatalf("%s/%s b=%d: %v", model.Net.Name, eng.Name(), *b, err)
	}
	model.Net.Release()
	modelSpan.End()
	run.End()

	telemetry.CollectDevice(reg, dev, telemetry.Labels{"device": "k40c"})

	from, until := traceWindow(*since, *last, dev.Elapsed())
	if err := writeTo(*traceOut, func(w io.Writer) error {
		return tracer.WriteChromeWindow(w, from, until)
	}); err != nil {
		log.Fatal(err)
	}
	if err := writeTo(*metricsOut, reg.WritePrometheus); err != nil {
		log.Fatal(err)
	}
	if err := writeTo(*jsonOut, reg.WriteJSON); err != nil {
		log.Fatal(err)
	}

	tot := run.Totals()
	fmt.Fprintf(os.Stderr,
		"%s/%s b=%d: %d iterations, %d kernels + %d transfers over %v simulated, span depth %d -> %s, %s\n",
		model.Net.Name, eng.Name(), *b, *iters, tot.Kernels, tot.Transfers,
		dev.Elapsed(), run.Depth(), *traceOut, *metricsOut)

	if *httpAddr != "" {
		fmt.Fprintf(os.Stderr, "serving /metrics, /metrics.json, /trace and /debug/dash on %s\n", *httpAddr)
		log.Fatal(http.ListenAndServe(*httpAddr, obs.Handler(obs.NewPlane(reg), tracer)))
	}
}
