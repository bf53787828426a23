// Package serve is the inference-serving layer over simulated GPUs.
// Its one front door is Fleet: a pool of replicas behind a
// router, each replica coalescing single-image requests in a dynamic
// batcher (flush on max-batch-size or max-wait deadline, whichever
// comes first), dispatching formed batches to the least-loaded of its
// own simulated devices, and controlling admission with a
// bounded queue that rejects with ErrOverloaded instead of building
// unbounded backlog. RunTrace is its one load driver: it replays an
// open-loop arrival trace against a fleet and reports what it served.
//
// The economics being exploited are the paper's own: Figure 3a shows
// per-image cost falling steeply with batch size (fixed kernel-launch
// and transfer overheads amortise across the batch) while Figure 7
// shows the host↔device transfer share staying near-constant — so a
// server that waits a bounded few milliseconds to form larger batches
// buys a multiple of simulated throughput for a bounded latency cost.
// cmd/serve sweeps batching policies and renders exactly that
// trade-off.
//
// Every request's journey is observable: an optional telemetry.Tracer
// receives a span per batch (kernel/transfer events attached, one
// process lane per device) with a child span per request, and the
// plane's registry carries queue-depth and in-flight gauges,
// batch-size, queue-wait and end-to-end latency histograms, and
// per-device busy-time counters — each written once, read whole-run by
// the exporters and Stats and over rolling windows by the dashboard and
// the fleet's SLO monitor.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/obs"
	"gpucnn/internal/par"
	"gpucnn/internal/telemetry"
)

// ErrOverloaded is returned by Fleet.Submit when the chosen replica's
// admission queue is full: the caller should shed load or retry after
// backoff.
var ErrOverloaded = errors.New("serve: server overloaded, request rejected")

// ErrClosed is returned by Fleet.Submit after Close.
var ErrClosed = errors.New("serve: server closed")

// Priority is a request's admission class. Under queue pressure the
// classes shed in order: batch first, then standard, and interactive
// only when the queue is completely full — so the bounded admission
// queue degrades offline traffic before user-facing traffic.
type Priority int

const (
	// PriorityBatch is offline/backfill traffic: shed first.
	PriorityBatch Priority = iota
	// PriorityStandard is ordinary traffic.
	PriorityStandard
	// PriorityInteractive is user-facing traffic: sheds only when the
	// queue is full.
	PriorityInteractive
)

func (p Priority) String() string {
	switch p {
	case PriorityBatch:
		return "batch"
	case PriorityStandard:
		return "standard"
	case PriorityInteractive:
		return "interactive"
	}
	return fmt.Sprintf("Priority(%d)", int(p))
}

// index clamps p onto the per-class instrument arrays.
func (p Priority) index() int {
	if p < PriorityBatch {
		return int(PriorityBatch)
	}
	if p > PriorityInteractive {
		return int(PriorityInteractive)
	}
	return int(p)
}

// deviceQueue bounds each device's in-flight batch queue.
const deviceQueue = 2

// Options configures every replica of a fleet. Zero values take the
// documented defaults.
type Options struct {
	// Engine runs the model's convolution. Default: impls.NewCuDNN()
	// (the only paper engine without shape limits, so partial batches
	// of any size are servable).
	Engine impls.Engine
	// Model is the per-image convolution configuration; Batch is
	// overridden per formed batch. Default: a CIFAR-scale layer
	// (1, 32, 32, 5, 1) with padding 2.
	Model conv.Config
	// MaxBatch is the batch size that flushes the batcher immediately.
	// Default 32.
	MaxBatch int
	// MaxWait is the longest the batcher holds an admitted request to
	// let a batch fill. Default 2ms.
	MaxWait time.Duration
	// QueueCap bounds the admission queue; a full queue rejects with
	// ErrOverloaded. Default 4×MaxBatch.
	QueueCap int
	// TimeScale converts simulated batch duration into wall occupancy:
	// after running a batch the device worker sleeps sim×TimeScale, so
	// a replica's capacity, and the queueing an offered load meets,
	// are those of hardware of that speed. Negative disables the sleep
	// (pure simulation). Default 1.
	TimeScale float64
	// Tracer, when set, receives one root span per replica with a child
	// span per batch and grandchild per request.
	Tracer *telemetry.Tracer
	// Obs carries the registry the serve_* and per-device gpusim_*
	// metrics land in; nil writes them to telemetry.Default(). A
	// non-nil plane also gets a "batcher" dashboard section and the
	// fleet's burn-rate monitor over the serving objectives.
	Obs *obs.Plane
	// SLO tunes the objectives the fleet's monitor watches on Obs.
	SLO SLOConfig
}

// SLOConfig declares the serving objectives the fleet's monitor
// watches. Zero values take the documented defaults.
type SLOConfig struct {
	// E2EThreshold is the end-to-end latency bound in seconds; requests
	// slower than this burn the latency budget. Default 10ms. The bound
	// is inserted into the latency histograms' buckets, so the bad
	// fraction is exact at the threshold.
	E2EThreshold float64
	// E2ETarget is the fraction of requests that must meet the bound.
	// Default 0.99 (budget: 1% slow).
	E2ETarget float64
	// ShedMax is the tolerated shed (ErrOverloaded) fraction of offered
	// load. Default 0.05.
	ShedMax float64
	// Fast/Slow are the burn-rate windows; Interval the evaluation
	// period (obs defaults apply; Interval < 0 means manual Eval).
	Fast, Slow, Interval time.Duration
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.E2EThreshold <= 0 {
		c.E2EThreshold = 0.010
	}
	if c.E2ETarget <= 0 || c.E2ETarget >= 1 {
		c.E2ETarget = 0.99
	}
	if c.ShedMax <= 0 || c.ShedMax >= 1 {
		c.ShedMax = 0.05
	}
	return c
}

func (o Options) withDefaults() Options {
	if o.Engine == nil {
		o.Engine = impls.NewCuDNN()
	}
	if (o.Model == conv.Config{}) {
		o.Model = conv.Config{Input: 32, Channels: 3, Filters: 32, Kernel: 5, Stride: 1, Pad: 2}
	}
	o.Model.Batch = 1
	o.Model = o.Model.WithDefaults()
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Millisecond
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 4 * o.MaxBatch
	}
	if o.TimeScale < 0 {
		o.TimeScale = 0
	} else if o.TimeScale == 0 {
		o.TimeScale = 1
	}
	return o
}

// Result describes one served request.
type Result struct {
	BatchSize int           // size of the batch the request rode in
	Device    int           // replica device that ran it
	QueueWait time.Duration // admission → execution start (wall)
	E2E       time.Duration // admission → completion (wall)
	BatchSim  time.Duration // simulated GPU time of the whole batch
}

// SimPerImage returns the request's share of simulated GPU time — the
// per-image cost the batch amortised.
func (r Result) SimPerImage() time.Duration {
	if r.BatchSize <= 0 {
		return 0
	}
	return r.BatchSim / time.Duration(r.BatchSize)
}

type reqDone struct {
	res Result
	err error
}

type request struct {
	enq  time.Time
	done chan reqDone
}

// Stats is a point-in-time read of a replica's counters, mainly for
// tests and the autoscaler; the registry carries the full metric
// surface.
type Stats struct {
	Submitted int64
	Rejected  int64
	Completed int64
	Failed    int64
	Batches   []int64 // per device
	Images    []int64 // per device
}

// server is one fleet replica: it accepts single-image inference
// requests and serves them in dynamically formed batches across its
// devices.
type server struct {
	opts Options
	gpus []gpu

	mu      sync.RWMutex // guards closed, started, and the queue send
	closed  bool
	started bool

	queue chan *request
	devq  []chan []*request
	load  []atomic.Int64 // outstanding images per device
	scan  int            // first device dispatch's scan visits
	wg    sync.WaitGroup

	root   *telemetry.Span
	nbatch atomic.Uint64

	// One instrument per quantity: Stats, the exporters, the dashboard
	// and the fleet's SLO monitor all read these.
	plane    *obs.Plane
	requests *telemetry.Counter    // admitted
	rejected [3]*telemetry.Counter // shed, per Priority class
	failed   *telemetry.Counter
	images   *telemetry.Counter // completed
	batches  *telemetry.Counter
	qDepth   *telemetry.Gauge
	inflight *telemetry.Gauge
	hBatch   *telemetry.Histogram
	hQueue   *telemetry.Histogram
	hE2E     *telemetry.Histogram
}

// gpu is one simulated device of a replica, the plans cached on it
// (one per batch size, reused across batches) and its instruments,
// resolved once so the batch path does no registry lookups. Only the
// device's worker, deviceLoop, runs batches on it, and Close releases
// its plans after the workers exit, so the device is exclusive by
// construction and needs no lock: a batch's Elapsed() delta and
// attached sink are its own.
type gpu struct {
	dev     *gpusim.Device
	plans   map[conv.Config]impls.Plan
	rec     *telemetry.Recorder // gpusim_* event counters; attached to each batch span
	busy    *telemetry.Counter  // simulated seconds
	images  *telemetry.Counter
	batches *telemetry.Counter
}

// newServer builds a replica over n devices of the given spec, with
// extra constant labels on every series (a fleet tells its replicas
// apart with a replica label). Call start before submit.
func newServer(n int, spec gpusim.DeviceSpec, opts Options, extra telemetry.Labels) (*server, error) {
	opts = opts.withDefaults()
	if err := opts.Model.Validate(); err != nil {
		return nil, fmt.Errorf("serve: bad model: %w", err)
	}
	// Batches of every size 1..MaxBatch must be servable, or deadline
	// flushes would fail at runtime; reject shape-limited engines now.
	for _, b := range []int{1, opts.MaxBatch} {
		cfg := opts.Model
		cfg.Batch = b
		if err := opts.Engine.Supports(cfg); err != nil {
			return nil, fmt.Errorf("serve: engine %s cannot run batch %d: %w", opts.Engine.Name(), b, err)
		}
	}
	s := &server{
		opts:  opts,
		gpus:  make([]gpu, n),
		queue: make(chan *request, opts.QueueCap),
		devq:  make([]chan []*request, n),
		load:  make([]atomic.Int64, n),
		plane: opts.Obs,
	}
	for i := range s.devq {
		s.devq[i] = make(chan []*request, deviceQueue)
	}
	reg := opts.Obs.Registry()
	labels := extra.With("engine", opts.Engine.Name())
	host := labels.With("clock", "host")
	latency := serveLatencyBuckets(opts.SLO.withDefaults().E2EThreshold)
	reg.Help("serve_queue_depth", "Requests waiting in the admission queue.")
	reg.Help("serve_batch_size_images", "Images per dispatched batch.")
	reg.Help("serve_queue_wait_seconds", "Admission to execution start, per request.")
	reg.Help("serve_e2e_latency_seconds", "Admission to completion, per request.")
	reg.Help("serve_rejected_total", "Requests shed by admission control, per priority class.")
	reg.Help("serve_device_busy_seconds_total", "Simulated device time spent on batches.")
	s.qDepth = reg.Gauge("serve_queue_depth", labels)
	s.inflight = reg.Gauge("serve_outstanding_images", labels)
	s.hBatch = reg.Histogram("serve_batch_size_images", labels, batchBuckets(opts.MaxBatch))
	s.hQueue = reg.Histogram("serve_queue_wait_seconds", host, latency)
	s.hE2E = reg.Histogram("serve_e2e_latency_seconds", host, latency)
	s.requests = reg.Counter("serve_requests_total", labels)
	s.failed = reg.Counter("serve_failed_total", labels)
	s.images = reg.Counter("serve_images_total", labels)
	s.batches = reg.Counter("serve_batches_total", labels)
	for pr := PriorityBatch; pr <= PriorityInteractive; pr++ {
		s.rejected[pr.index()] = reg.Counter("serve_rejected_total", labels.With("priority", pr.String()))
	}
	for i := range s.gpus {
		dl := labels.With("device", strconv.Itoa(i))
		s.gpus[i] = gpu{
			dev:     gpusim.New(spec),
			plans:   make(map[conv.Config]impls.Plan),
			rec:     telemetry.NewRecorder().CountInto(reg, dl),
			busy:    reg.Counter("serve_device_busy_seconds_total", dl.With("clock", "sim")),
			images:  reg.Counter("serve_device_images_total", dl),
			batches: reg.Counter("serve_device_batches_total", dl),
		}
	}
	if opts.Tracer != nil {
		s.root = opts.Tracer.Root("serve").
			SetAttr("engine", opts.Engine.Name()).
			SetAttr("devices", fmt.Sprint(n))
	}
	s.plane.Section("batcher", s.dashSection)
	return s, nil
}

// serveLatencyBuckets are ms-aligned latency bounds; the SLO threshold
// is spliced in so FractionAbove is exact at the objective's boundary.
func serveLatencyBuckets(threshold float64) []float64 {
	out := []float64{
		1e-4, 2.5e-4, 5e-4, 1e-3, 2e-3, 4e-3, 8e-3,
		1.6e-2, 3.2e-2, 6.4e-2, 0.128, 0.256, 0.512, 1.024,
	}
	for _, b := range out {
		if b == threshold {
			return out
		}
	}
	return append(out, threshold) // Registry.Histogram sorts
}

// servingObjectives are the e2e-latency and shed-rate objectives over
// every series the registry's replicas write.
func servingObjectives(reg *telemetry.Registry, slo SLOConfig) []obs.Objective {
	return []obs.Objective{
		obs.LatencyObjective{
			ObjName: "e2e-p99", Reg: reg, Family: "serve_e2e_latency_seconds",
			Threshold: slo.E2EThreshold, Target: slo.E2ETarget,
		},
		obs.RateObjective{
			ObjName: "shed-rate", Reg: reg,
			Bad: "serve_rejected_total", Good: "serve_requests_total",
			MaxRate: slo.ShedMax,
		},
	}
}

// dashSection feeds the plane's "batcher" dashboard section.
func (s *server) dashSection() map[string]any {
	sec := map[string]any{
		"queue_len":    len(s.queue),
		"queue_cap":    cap(s.queue),
		"max_batch":    s.opts.MaxBatch,
		"max_wait":     s.opts.MaxWait.String(),
		"device_queue": deviceQueue,
		"engine":       s.opts.Engine.Name(),
	}
	for i := range s.devq {
		sec[fmt.Sprintf("dev%d_queued_batches", i)] = len(s.devq[i])
		sec[fmt.Sprintf("dev%d_outstanding_images", i)] = s.load[i].Load()
	}
	return sec
}

// batchBuckets covers 1..max in powers of two.
func batchBuckets(max int) []float64 {
	var out []float64
	for b := 1; b < max; b *= 2 {
		out = append(out, float64(b))
	}
	return append(out, float64(max))
}

// start launches the batcher and one worker per device. It is a no-op
// when called twice or after Close. The started/closed transition is
// serialized under s.mu: a start racing a Close can never spawn a
// batchLoop that drains the queue alongside Close's manual drain (or
// Add to the WaitGroup while Close is already Waiting on it). Tests
// hold it back to fill the admission queue deterministically.
func (s *server) start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	s.wg.Add(1 + len(s.devq))
	par.Go("serve.batchLoop", s.batchLoop)
	for i := range s.devq {
		par.Go(fmt.Sprintf("serve.device-%d", i), func() { s.deviceLoop(i) })
	}
}

// submit admits one single-image request of class pr and blocks until
// it is served, the server rejects it, or ctx is cancelled.
// Cancellation abandons the wait but not the work: an admitted request
// still occupies its batch slot. Lower classes are admitted only while
// the queue is below their depth limit, so under ErrOverloaded
// pressure batch traffic sheds first, then standard, and interactive
// keeps the full queue capacity.
func (s *server) submit(ctx context.Context, pr Priority) (Result, error) {
	r := &request{enq: time.Now(), done: make(chan reqDone, 1)}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return Result{}, ErrClosed
	}
	admitted := false
	if len(s.queue) < s.admitLimit(pr) {
		select {
		case s.queue <- r:
			admitted = true
		default:
		}
	}
	s.mu.RUnlock()
	if !admitted {
		s.rejected[pr.index()].Inc()
		return Result{}, ErrOverloaded
	}
	s.requests.Inc()
	s.qDepth.Set(float64(len(s.queue)))
	select {
	case d := <-r.done:
		return d.res, d.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// admitLimit returns the queue depth at which class pr stops being
// admitted: batch traffic may fill half the queue, standard 7/8 of it,
// interactive all of it — the reserved headroom is what the higher
// classes ride out a burst on.
func (s *server) admitLimit(pr Priority) int {
	c := cap(s.queue)
	switch {
	case pr <= PriorityBatch:
		return c / 2
	case pr == PriorityStandard:
		return c - c/8
	default:
		return c
	}
}

// QueueDepth returns the instantaneous admission-queue length.
func (s *server) QueueDepth() int { return len(s.queue) }

// Load returns the server's instantaneous load proxy: queued requests
// plus images outstanding on devices — the quantity a least-loaded
// front-door router compares.
func (s *server) Load() int64 { return int64(len(s.queue)) + sumLoads(s.load) }

// Close stops admission, drains every already-admitted request, waits
// for the workers, and releases the cached device plans. Safe to call
// twice, and safe against a concurrent start: started is read under
// the same critical section that publishes closed, so either the start
// happened first (its batchLoop drains the closed queue) or it is a
// no-op and Close's manual drain is the only consumer.
func (s *server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	started := s.started
	close(s.queue)
	s.mu.Unlock()
	if !started {
		// Never started: no batcher to drain admitted requests.
		for r := range s.queue {
			r.done <- reqDone{err: ErrClosed}
		}
	}
	s.wg.Wait()
	for _, g := range s.gpus {
		for _, p := range g.plans {
			p.Release()
		}
	}
	s.root.End()
}

// Stats reads the replica's counters. Servers writing one registry
// under the same labels share series, and so share Stats; the fleet's
// replica label keeps its replicas apart.
func (s *server) Stats() Stats {
	st := Stats{
		Submitted: int64(s.requests.Value()),
		Completed: int64(s.images.Value()),
		Failed:    int64(s.failed.Value()),
	}
	for _, c := range s.rejected {
		st.Rejected += int64(c.Value())
	}
	for _, g := range s.gpus {
		st.Batches = append(st.Batches, int64(g.batches.Value()))
		st.Images = append(st.Images, int64(g.images.Value()))
	}
	return st
}
