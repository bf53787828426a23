// Command serve runs the inference-serving layer over the simulated
// cluster and renders a throughput-vs-latency table across batching
// policies: the batch=1 baseline against dynamic batching at several
// max-wait settings. The per-image amortisation the paper measures in
// Figure 3a reappears here as a serving result — larger formed batches
// buy simulated throughput at a bounded queueing-latency cost.
//
// With -dash the process also serves the live observability plane:
// rolling-window latency/queue metrics, SLO burn-rate states and
// profile attributions at /debug/dash (text) and /debug/dash.json,
// plus the current policy's /metrics. Point cmd/obswatch at it, or
// curl it mid-run. -linger keeps the dashboard up after the table so
// the final minute of history stays inspectable.
//
// With -fleet the command instead sweeps a sharded serving fleet:
// for each initial replica count in -shards it builds a pool of
// replicas (each a full server over a private cluster shard), routes
// an open-loop trace-driven workload (-trace ramp|diurnal|burst|steady)
// through the front door (-route hash|least-loaded), lets the
// SLO-burn-driven autoscaler grow and shrink the pool, and renders the
// throughput-vs-p99 frontier with the replica range each row visited
// plus the autoscaler's decision log.
//
// Usage:
//
//	serve [-devices 4] [-engine cuDNN] [-clients 64] [-requests 2000]
//	      [-maxbatch 32] [-waits 500us,2ms,8ms] [-timescale 1]
//	      [-input 32] [-filters 32] [-kernel 5] [-metrics out.json]
//	      [-dash :8080] [-linger] [-profiles dir]
//	      [-slo-p99 10ms] [-slo-target 0.99] [-slo-shedmax 0.05]
//	serve -fleet [-shards 1,2,4] [-shard-devices 2] [-route hash]
//	      [-trace ramp] [-base-rps 2000] [-peak-rps 60000]
//	      [-trace-dur 4s] [-trace-seed 1] [-as-max 0] [-as-interval 250ms]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/multigpu"
	"gpucnn/internal/obs"
	"gpucnn/internal/par"
	"gpucnn/internal/planner"
	"gpucnn/internal/serve"
	"gpucnn/internal/telemetry"
)

func main() {
	devices := flag.Int("devices", 4, "simulated GPUs in the cluster")
	engine := flag.String("engine", "cuDNN", "convolution engine, e.g. cuDNN or Autotuned (must support arbitrary batch sizes)")
	clients := flag.Int("clients", 64, "closed-loop load-generator clients")
	requests := flag.Int("requests", 2000, "requests to complete per policy")
	maxBatch := flag.Int("maxbatch", 32, "dynamic batcher flush size")
	waits := flag.String("waits", "500us,2ms,8ms", "comma-separated max-wait settings for the dynamic policies")
	queueCap := flag.Int("queue", 0, "admission queue bound (0 = 4×maxbatch)")
	timeScale := flag.Float64("timescale", 1, "wall occupancy per simulated second (negative disables)")
	input := flag.Int("input", 32, "model input extent (square)")
	channels := flag.Int("channels", 3, "model input channels")
	filters := flag.Int("filters", 32, "model output feature maps")
	kernel := flag.Int("kernel", 5, "model kernel extent")
	stride := flag.Int("stride", 1, "model stride")
	pad := flag.Int("pad", 2, "model padding")
	metrics := flag.String("metrics", "", "write per-policy registry snapshots to this JSON file")
	dashAddr := flag.String("dash", "", "serve the live dashboard (/debug/dash, /debug/dash.json, /metrics) on this address")
	linger := flag.Bool("linger", false, "with -dash: keep the dashboard up after the table (ctrl-C to exit)")
	profDir := flag.String("profiles", "", "with -dash: periodically write CPU/heap profiles to this directory")
	sloP99 := flag.Duration("slo-p99", 10*time.Millisecond, "SLO objective: e2e p99 latency threshold")
	sloTarget := flag.Float64("slo-target", 0.99, "SLO objective: fraction of requests that must land under -slo-p99")
	sloShed := flag.Float64("slo-shedmax", 0.05, "SLO objective: maximum tolerated shed (rejection) rate")
	fleetMode := flag.Bool("fleet", false, "sweep a sharded serving fleet under a trace-driven open loop instead of the policy table")
	shards := flag.String("shards", "1,2,4", "with -fleet: comma-separated initial replica counts, one frontier row each")
	shardDevices := flag.Int("shard-devices", 2, "with -fleet: simulated GPUs per replica shard")
	route := flag.String("route", "hash", "with -fleet: front-door routing (hash or least-loaded)")
	traceShape := flag.String("trace", "ramp", "with -fleet: arrival curve (steady, ramp, diurnal or burst)")
	baseRPS := flag.Float64("base-rps", 2000, "with -fleet: trace base arrival rate")
	peakRPS := flag.Float64("peak-rps", 60000, "with -fleet: trace peak arrival rate")
	traceDur := flag.Duration("trace-dur", 4*time.Second, "with -fleet: trace duration per row")
	traceSeed := flag.Int64("trace-seed", 1, "with -fleet: trace RNG seed (same seed, same trace)")
	asMax := flag.Int("as-max", 0, "with -fleet: autoscaler max replicas per row (0 = 2× the row's initial count)")
	asInterval := flag.Duration("as-interval", 250*time.Millisecond, "with -fleet: autoscaler tick interval")
	flag.Parse()

	eng, err := impls.ByName(*engine)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	model := conv.Config{Input: *input, Channels: *channels, Filters: *filters,
		Kernel: *kernel, Stride: *stride, Pad: *pad}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Each policy (or fleet row) serves into a fresh plane: its registry
	// is the run's -metrics snapshot, and the dashboard follows the run
	// in flight.
	var live atomic.Pointer[obs.Plane]
	var prof *obs.Profiler
	newPlane := func() *obs.Plane {
		p := obs.NewPlane(telemetry.NewRegistry())
		// Kernel workspace-arena hit rate and high-water mark on the dash:
		// the fused im2col path's memory win shows up here live.
		obs.AttachWorkspace(p)
		// Plan-time autotuner decisions on the dash: with -engine Autotuned
		// (the planner registers the eighth engine via its init), the
		// "planner" section shows which engine each layer runs on and why,
		// plus per-strategy decision counters.
		planner.AttachPlane(p)
		p.AttachProfiler(prof)
		live.Store(p)
		return p
	}
	slo := serve.SLOConfig{
		E2EThreshold: sloP99.Seconds(),
		E2ETarget:    *sloTarget,
		ShedMax:      *sloShed,
	}

	if *dashAddr != "" {
		if *profDir != "" {
			prof = obs.NewProfiler(obs.ProfilerConfig{Dir: *profDir})
			prof.Start()
			defer prof.Stop()
		}
		dash := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			obs.Handler(live.Load(), nil).ServeHTTP(w, r)
		})
		srv := &http.Server{Addr: *dashAddr, Handler: dash}
		par.Go("serve.dash", func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("serve: dashboard: %v", err)
			}
		})
		fmt.Printf("dashboard: http://%s/debug/dash\n", *dashAddr)
	}

	if *fleetMode {
		runFleetSweep(ctx, fleetSweep{
			newPlane: newPlane,
			engine:   eng, model: model, slo: slo,
			shards: *shards, shardDevices: *shardDevices,
			routeName: *route, traceName: *traceShape,
			baseRPS: *baseRPS, peakRPS: *peakRPS,
			dur: *traceDur, seed: *traceSeed,
			maxBatch: *maxBatch, maxWait: 2 * time.Millisecond, queueCap: *queueCap,
			timeScale: *timeScale, asMax: *asMax, asInterval: *asInterval,
		})
		if *dashAddr != "" && *linger && ctx.Err() == nil {
			fmt.Printf("\ndashboard still live at http://%s/debug/dash — ctrl-C to exit\n", *dashAddr)
			<-ctx.Done()
		}
		return
	}

	type policy struct {
		name     string
		maxBatch int
		maxWait  time.Duration
	}
	policies := []policy{{"batch=1", 1, time.Millisecond}}
	for _, w := range strings.Split(*waits, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(w))
		if err != nil {
			log.Fatalf("serve: bad -waits entry %q: %v", w, err)
		}
		policies = append(policies, policy{"dynamic", *maxBatch, d})
	}

	spec := gpusim.TeslaK40c()
	fmt.Printf("Inference serving — dynamic batching over the simulated cluster\n")
	perImage := model.WithDefaults()
	perImage.Batch = 1
	fmt.Printf("model %v · engine %s · %d× %s · %d closed-loop clients · %d requests per policy\n\n",
		perImage, eng.Name(), *devices, spec.Name, *clients, *requests)
	fmt.Printf("%-9s %-9s %-11s %-10s %-11s %-10s %-10s %-10s %-9s %s\n",
		"policy", "max-wait", "mean-batch", "req/s", "sim img/s", "p50", "p99", "queue-p99", "shed", "slo")

	snapshots := map[string]telemetry.MetricsSnapshot{}
	for _, p := range policies {
		plane := newPlane()
		s, err := serve.New(multigpu.New(*devices, spec), serve.Options{
			Engine:    eng,
			Model:     model,
			MaxBatch:  p.maxBatch,
			MaxWait:   p.maxWait,
			QueueCap:  *queueCap,
			TimeScale: *timeScale,
			Obs:       plane,
			SLO:       slo,
		})
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		rep := serve.RunLoad(ctx, s, serve.LoadOptions{Clients: *clients, Requests: *requests})
		stats := s.Stats()
		sloState := worstState(s.Monitor())
		s.Close()
		wait := p.maxWait.String()
		if p.maxBatch == 1 {
			wait = "—"
		}
		fmt.Printf("%-9s %-9s %-11.1f %-10.0f %-11.0f %-10v %-10v %-10v %-9s %s\n",
			p.name, wait, rep.MeanBatch, rep.ThroughputRPS, rep.SimImagesPerSec,
			rep.P50.Round(time.Microsecond), rep.P99.Round(time.Microsecond),
			rep.QueueP99.Round(time.Microsecond),
			shedColumn(stats), sloState)
		key := p.name
		if p.maxBatch > 1 {
			key = fmt.Sprintf("dynamic-%s", p.maxWait)
		}
		snapshots[key] = plane.Registry().Snapshot()
		if ctx.Err() != nil {
			break
		}
	}

	fmt.Printf("\nsim img/s = served images per simulated GPU-busy second (batch amortisation, Figure 3a);\n")
	fmt.Printf("req/s and percentiles are wall-clock under the closed loop (timescale %g);\n", *timeScale)
	fmt.Printf("shed = rejected/offered under the bounded admission queue; slo = worst burn-rate state at close.\n")

	if *metrics != "" {
		enc, err := json.MarshalIndent(snapshots, "", "  ")
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		if err := os.WriteFile(*metrics, append(enc, '\n'), 0o644); err != nil {
			log.Fatalf("serve: %v", err)
		}
		fmt.Printf("\nwrote per-policy metrics to %s\n", *metrics)
	}

	if *dashAddr != "" && *linger && ctx.Err() == nil {
		fmt.Printf("\ndashboard still live at http://%s/debug/dash — ctrl-C to exit\n", *dashAddr)
		<-ctx.Done()
	}
}

// shedColumn renders the shed rate over everything the policy was
// offered (admitted plus rejected).
func shedColumn(st serve.Stats) string {
	offered := st.Submitted + st.Rejected
	if offered == 0 {
		return "—"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(st.Rejected)/float64(offered))
}

// worstState reports the monitor's worst objective state at the end of
// a policy run.
func worstState(m *obs.Monitor) string {
	if m == nil {
		return "—"
	}
	return m.Worst().String()
}

// fleetSweep carries the -fleet mode's resolved configuration.
type fleetSweep struct {
	newPlane func() *obs.Plane
	engine   impls.Engine
	model    conv.Config
	slo      serve.SLOConfig

	shards       string
	shardDevices int
	routeName    string
	traceName    string

	baseRPS, peakRPS float64
	dur              time.Duration
	seed             int64

	maxBatch, queueCap int
	maxWait            time.Duration
	timeScale          float64
	asMax              int
	asInterval         time.Duration
}

// runFleetSweep renders the throughput-vs-p99 frontier: one row per
// initial replica count, each replaying the same seeded trace through
// its own fleet while the autoscaler reacts to the fleet monitor's
// burn states.
func runFleetSweep(ctx context.Context, cfg fleetSweep) {
	routePolicy, err := serve.RoutePolicyByName(cfg.routeName)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	shape, err := serve.TraceShapeByName(cfg.traceName)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	var counts []int
	for _, s := range strings.Split(cfg.shards, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			log.Fatalf("serve: bad -shards entry %q", s)
		}
		counts = append(counts, n)
	}

	trace := serve.TraceOptions{
		Shape: shape, BaseRPS: cfg.baseRPS, PeakRPS: cfg.peakRPS,
		Duration: cfg.dur, Seed: cfg.seed, HeavyTailP: 0.05,
	}
	perImage := cfg.model.WithDefaults()
	perImage.Batch = 1
	fmt.Printf("Sharded serving fleet — SLO-aware autoscaling under an open-loop %s trace\n", shape)
	fmt.Printf("model %v · engine %s · %d GPUs per shard · route %s · %.0f→%.0f RPS over %v (seed %d)\n\n",
		perImage, cfg.engine.Name(), cfg.shardDevices, routePolicy, cfg.baseRPS, cfg.peakRPS, cfg.dur, cfg.seed)
	fmt.Printf("%-7s %-10s %-10s %-10s %-10s %-10s %-9s %-6s %s\n",
		"shards", "replicas", "offer/s", "served/s", "p50", "p99", "shed", "slo", "scale events")

	type rowLog struct {
		n      int
		events []serve.ScaleEvent
	}
	var logs []rowLog
	for _, n := range counts {
		maxReplicas := cfg.asMax
		if maxReplicas <= 0 {
			maxReplicas = 2 * n
		}
		opts := serve.FleetOptions{
			Replicas: n, ShardDevices: cfg.shardDevices,
			Server: serve.Options{
				Engine: cfg.engine, Model: cfg.model,
				MaxBatch: cfg.maxBatch, MaxWait: cfg.maxWait, QueueCap: cfg.queueCap,
				TimeScale: cfg.timeScale, Obs: cfg.newPlane(), SLO: cfg.slo,
			},
			Route: routePolicy,
			Autoscale: serve.AutoscaleConfig{
				Min: n, Max: maxReplicas, Interval: cfg.asInterval,
				ScaleOutAfter: 2, ScaleInAfter: 6, Cooldown: 2,
			},
		}
		f, err := serve.NewFleet(opts)
		if err != nil {
			log.Fatalf("serve: fleet[%d]: %v", n, err)
		}
		rep := serve.RunTrace(ctx, f, trace)
		events := f.Autoscaler().Events()
		slo := worstState(f.Monitor())
		f.Close()

		shed := "—"
		if rep.Offered > 0 {
			shed = fmt.Sprintf("%.1f%%", 100*float64(rep.Shed)/float64(rep.Offered))
		}
		fmt.Printf("%-7d %-10s %-10.0f %-10.0f %-10v %-10v %-9s %-6s %d\n",
			n, fmt.Sprintf("%d→%d", rep.ReplicaMin, rep.ReplicaMax),
			rep.OfferedRPS, rep.ThroughputRPS,
			rep.P50.Round(time.Microsecond), rep.P99.Round(time.Microsecond),
			shed, slo, len(events))
		logs = append(logs, rowLog{n, events})
		if ctx.Err() != nil {
			break
		}
	}

	fmt.Printf("\nreplicas = fleet size range the autoscaler visited during the trace;\n")
	fmt.Printf("shed counts server rejections plus open-loop client drops over offered arrivals.\n")
	for _, l := range logs {
		if len(l.events) == 0 {
			continue
		}
		fmt.Printf("\nfleet[%d] autoscaler log:\n", l.n)
		for _, e := range l.events {
			fmt.Printf("  %s %s\n", e.At.Format("15:04:05.000"), e)
		}
	}
}
