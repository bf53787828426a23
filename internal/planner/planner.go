// Package planner implements plan-time engine autotuning: the paper's
// core finding is that no single convolution strategy wins everywhere —
// the best implementation flips with (batch, image, filters, kernel,
// stride) — so, like cuDNN's heuristics pass, the planner scores every
// candidate engine for a concrete layer configuration through the
// gpusim cost model and delegates to the predicted winner.
//
// Scoring runs each candidate's full kernel plan (DeviceSpec.simulate
// over one training iteration or inference pass) on a private scratch
// device, so decisions never touch the caller's simulated clock or
// memory accountant. The top candidates can optionally be re-ranked by
// a one-shot measured probe — one real (CPU-executed) forward pass —
// and the winning decision is cached per (device, objective, config)
// so repeated plans, including every replica of a serving fleet going
// through multigpu.PlanCache, reuse it without re-scoring.
//
// The result is exposed as the eighth registry engine, "Autotuned"
// (see engine.go), validated against the paper's Figure 3 sweeps: per
// cell it must land within tolerance of the best fixed engine.
package planner

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workload"
)

// Objective selects what a candidate's cost model scores: a full
// training iteration (transfer + forward + both backward passes, the
// paper's Figure 3 quantity) or a serving-style inference pass
// (transfer + forward).
type Objective int

const (
	// Training scores one full training iteration.
	Training Objective = iota
	// Inference scores one forward-only serving pass.
	Inference
)

// String returns the objective name used in cache keys and telemetry.
func (o Objective) String() string {
	if o == Inference {
		return "inference"
	}
	return "training"
}

// Candidate is one engine's scorecard inside a Decision.
type Candidate struct {
	Engine    string
	Strategy  conv.Strategy
	Predicted time.Duration // simulated cost of one objective pass
	Measured  time.Duration // wall time of the one-shot probe (0 = not probed)
	Skipped   string        // why the engine was excluded ("" = scored)
}

// Decision is the planner's cached verdict for one layer configuration
// on one device.
type Decision struct {
	Device    string
	Cfg       conv.Config
	Objective Objective

	Engine    string        // winner
	Strategy  conv.Strategy // winner's convolution family
	Reason    string        // human-readable rationale
	Predicted time.Duration // winner's simulated cost
	Measured  time.Duration // winner's probed cost (0 = not probed)

	Candidates []Candidate // every candidate, fastest predicted first

	// FromCache is set on decisions served from the cache rather than
	// freshly scored. It is not persisted.
	FromCache bool
}

// Margin returns how much slower the predicted runner-up is than the
// winner, as a fraction (0.15 = 15% slower). Zero when there is no
// scored runner-up.
func (d Decision) Margin() float64 {
	var runnerUp time.Duration
	for _, c := range d.Candidates {
		if c.Skipped != "" || c.Engine == d.Engine {
			continue
		}
		if runnerUp == 0 || c.Predicted < runnerUp {
			runnerUp = c.Predicted
		}
	}
	if runnerUp == 0 || d.Predicted <= 0 {
		return 0
	}
	return float64(runnerUp-d.Predicted) / float64(d.Predicted)
}

// Options configure a Planner. The zero value scores the paper's seven
// engines plus the Winograd and Theano-legacy extensions for the
// training objective, with no measured probe, against the shared
// DefaultCache.
type Options struct {
	// Candidates is the engine pool the planner chooses from. Nil means
	// DefaultCandidates().
	Candidates []impls.Engine
	// Objective is what the cost model scores (default Training).
	Objective Objective
	// ProbeTopK > 0 refines the decision by running a one-shot measured
	// probe — one real, numerics-executing forward pass — on the K
	// candidates with the best predicted cost, and ranking those by
	// measured time. Expensive (real arithmetic at the layer's full
	// shape); leave 0 for cost-model-only decisions.
	ProbeTopK int
	// Cache holds decisions across planners and replicas. Nil means the
	// process-wide DefaultCache.
	Cache *Cache
}

// DefaultCandidates returns the engine pool a zero-Options planner
// scores: the paper's seven implementations plus the cuDNN-Winograd
// and Theano-legacy extensions. Autotuned itself is excluded — it is
// a selection policy, not a strategy.
func DefaultCandidates() []impls.Engine {
	return append(impls.All(), impls.NewWinograd(), impls.NewTheanoLegacy())
}

// Planner scores candidate engines through the gpusim cost model and
// caches the per-configuration winner. Safe for concurrent use.
type Planner struct {
	candidates []impls.Engine
	byName     map[string]impls.Engine
	objective  Objective
	probeTopK  int
	cache      *Cache

	scored atomic.Int64 // cost-model evaluations run
	probed atomic.Int64 // measured probes run
}

// New creates a planner.
func New(opts Options) *Planner {
	if opts.Candidates == nil {
		opts.Candidates = DefaultCandidates()
	}
	if opts.Cache == nil {
		opts.Cache = DefaultCache
	}
	p := &Planner{
		candidates: opts.Candidates,
		byName:     make(map[string]impls.Engine, len(opts.Candidates)),
		objective:  opts.Objective,
		probeTopK:  opts.ProbeTopK,
		cache:      opts.Cache,
	}
	for _, e := range opts.Candidates {
		p.byName[e.Name()] = e
	}
	return p
}

// Cache returns the decision cache the planner writes through.
func (p *Planner) Cache() *Cache { return p.cache }

// Scored returns how many cost-model evaluations the planner has run —
// cache hits run none, which is what the determinism tests pin.
func (p *Planner) Scored() int64 { return p.scored.Load() }

// Probed returns how many measured probes the planner has run.
func (p *Planner) Probed() int64 { return p.probed.Load() }

// Engine resolves a decision's winner to a runnable engine: the
// planner's own candidate instance when it has one, the registry
// otherwise (a cached decision may have been scored by a planner with
// a different candidate pool).
func (p *Planner) Engine(d Decision) (impls.Engine, error) {
	if e, ok := p.byName[d.Engine]; ok {
		return e, nil
	}
	return impls.ByName(d.Engine)
}

// Decide returns the planner's decision for the configuration on the
// device spec, scoring the candidates on a cache miss and reusing the
// cached verdict otherwise.
func (p *Planner) Decide(spec gpusim.DeviceSpec, cfg conv.Config) (Decision, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return Decision{}, err
	}
	if d, ok := p.cache.lookup(spec.Name, p.objective, cfg); ok {
		d.FromCache = true
		observeDecision(d)
		return d, nil
	}
	d, err := p.decide(spec, cfg)
	if err != nil {
		return Decision{}, err
	}
	// First writer wins so concurrent deciders converge on one verdict
	// (scoring is deterministic, so any winner is the same winner).
	d = p.cache.store(d)
	observeDecision(d)
	return d, nil
}

func (p *Planner) decide(spec gpusim.DeviceSpec, cfg conv.Config) (Decision, error) {
	d := Decision{Device: spec.Name, Cfg: cfg, Objective: p.objective}
	for _, e := range p.candidates {
		c := Candidate{Engine: e.Name(), Strategy: e.Strategy()}
		if err := e.Supports(cfg); err != nil {
			c.Skipped = err.Error()
			d.Candidates = append(d.Candidates, c)
			continue
		}
		cost, err := p.score(spec, cfg, e)
		if err != nil {
			c.Skipped = err.Error()
			d.Candidates = append(d.Candidates, c)
			continue
		}
		c.Predicted = cost
		// Strategy after scoring: a dispatching candidate (another
		// planner's Autotuned; none in the default pool) reports what
		// it delegated to.
		c.Strategy = e.Strategy()
		d.Candidates = append(d.Candidates, c)
	}
	sort.SliceStable(d.Candidates, func(i, j int) bool {
		ci, cj := d.Candidates[i], d.Candidates[j]
		if (ci.Skipped == "") != (cj.Skipped == "") {
			return ci.Skipped == ""
		}
		if ci.Skipped != "" {
			return false
		}
		return ci.Predicted < cj.Predicted
	})
	scored := 0
	for _, c := range d.Candidates {
		if c.Skipped == "" {
			scored++
		}
	}
	if scored == 0 {
		var why []string
		for _, c := range d.Candidates {
			why = append(why, fmt.Sprintf("%s: %s", c.Engine, c.Skipped))
		}
		return Decision{}, fmt.Errorf("planner: no engine can run %v on %s (%s)",
			cfg, spec.Name, strings.Join(why, "; "))
	}

	if p.probeTopK > 1 && scored > 1 {
		p.probe(spec, cfg, &d, scored)
	}

	win := d.Candidates[0]
	d.Engine, d.Strategy = win.Engine, win.Strategy
	d.Predicted, d.Measured = win.Predicted, win.Measured
	switch {
	case scored == 1:
		d.Reason = fmt.Sprintf("only supporting engine (%s)", win.Strategy)
	case win.Measured > 0:
		d.Reason = fmt.Sprintf("measured probe: %v beats %s (predicted %v vs %v)",
			win.Measured.Round(time.Microsecond), d.Candidates[1].Engine,
			win.Predicted.Round(time.Microsecond), d.Candidates[1].Predicted.Round(time.Microsecond))
	default:
		d.Reason = fmt.Sprintf("cost model: %v vs %s %v (+%.0f%%)",
			win.Predicted.Round(time.Microsecond), d.Candidates[1].Engine,
			d.Candidates[1].Predicted.Round(time.Microsecond), 100*d.Margin())
	}
	return d, nil
}

// score runs one objective pass of the engine's kernel plan on a
// private scratch device and returns the simulated cost. The
// simulation is analytic and deterministic: microseconds of wall time,
// no arithmetic.
func (p *Planner) score(spec gpusim.DeviceSpec, cfg conv.Config, e impls.Engine) (time.Duration, error) {
	p.scored.Add(1)
	dev := gpusim.New(spec)
	plan, err := e.Plan(dev, cfg)
	if err != nil {
		return 0, err
	}
	defer plan.Release()
	if p.objective == Inference {
		err = plan.Inference()
	} else {
		err = plan.Iteration()
	}
	if err != nil {
		return 0, err
	}
	return dev.Elapsed(), nil
}

// probe re-ranks the top-K predicted candidates by one real forward
// pass each (full numerics on synthetic tensors), the one-shot
// measured refinement for layers the cost model ranks too close to
// call. Candidates whose probe fails keep their predicted rank.
func (p *Planner) probe(spec gpusim.DeviceSpec, cfg conv.Config, d *Decision, scored int) {
	k := p.probeTopK
	if k > scored {
		k = scored
	}
	x, w := workload.SyntheticTensors(cfg, 1)
	y := tensor.New(cfg.OutputShape()...)
	for i := 0; i < k; i++ {
		c := &d.Candidates[i]
		e, ok := p.byName[c.Engine]
		if !ok {
			continue
		}
		dev := gpusim.New(spec)
		plan, err := e.Plan(dev, cfg)
		if err != nil {
			continue
		}
		p.probed.Add(1)
		//lint:ignore wallclock the probe is the sanctioned model-vs-measured calibration boundary
		start := time.Now()
		err = plan.Forward(x, w, y)
		if err == nil {
			//lint:ignore wallclock measured refinement deliberately reads host time at the probe boundary
			c.Measured = time.Since(start)
		}
		plan.Release()
	}
	sort.SliceStable(d.Candidates[:k], func(i, j int) bool {
		ci, cj := d.Candidates[i], d.Candidates[j]
		if (ci.Measured > 0) != (cj.Measured > 0) {
			return ci.Measured > 0
		}
		return ci.Measured < cj.Measured
	})
}
