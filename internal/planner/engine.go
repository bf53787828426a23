package planner

import (
	"fmt"
	"sync"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/telemetry"
)

// init exposes the planner as the eighth registry engine: "Autotuned"
// resolves through impls.ByName and appears in impls.Extensions() for
// every binary that links this package.
func init() {
	impls.RegisterExtension(func() impls.Engine { return NewAutotuned(Options{}) })
}

// autotuned is the planner as an impls.Engine: Plan and PlanShared
// decide per configuration and delegate to the winner, so one engine
// value dropped into a sweep, a model, or a serving fleet picks its
// strategy per layer the way the paper's analysis says it should.
type autotuned struct {
	p *Planner

	mu   sync.Mutex
	last *conv.Strategy // strategy of the most recent delegation
}

// NewAutotuned returns the cost-model-driven engine. The zero Options
// value matches the instance registered as "Autotuned": the default
// candidate pool, training objective, shared DefaultCache.
func NewAutotuned(opts Options) impls.Engine {
	return &autotuned{p: New(opts)}
}

// Planner returns the underlying planner (decision cache, counters) of
// an Autotuned engine, or false for any other engine.
func PlannerOf(e impls.Engine) (*Planner, bool) {
	a, ok := e.(*autotuned)
	if !ok {
		return nil, false
	}
	return a.p, true
}

func (e *autotuned) Name() string { return "Autotuned" }

// Strategy reports the convolution family of the most recent
// delegation (the planner picks per configuration, so there is no
// single static answer); before any plan it reports the unrolling
// family of the cuDNN fallback.
func (e *autotuned) Strategy() conv.Strategy {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last != nil {
		return *e.last
	}
	return conv.Unrolling
}

// Supports reports nil when at least one candidate engine can run the
// configuration.
func (e *autotuned) Supports(cfg conv.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	var first error
	for _, c := range e.p.candidates {
		err := c.Supports(cfg)
		if err == nil {
			return nil
		}
		if first == nil {
			first = err
		}
	}
	return fmt.Errorf("autotuned: no candidate supports %v: %w", cfg, first)
}

func (e *autotuned) Plan(dev *gpusim.Device, cfg conv.Config) (impls.Plan, error) {
	return e.planWith(dev, cfg, false)
}

// PlanShared plans with framework-owned activations.
func (e *autotuned) PlanShared(dev *gpusim.Device, cfg conv.Config) (impls.Plan, error) {
	return e.planWith(dev, cfg, true)
}

func (e *autotuned) planWith(dev *gpusim.Device, cfg conv.Config, shared bool) (impls.Plan, error) {
	d, err := e.p.Decide(dev.Spec, cfg)
	if err != nil {
		return nil, err
	}
	chosen, err := e.p.Engine(d)
	if err != nil {
		return nil, fmt.Errorf("autotuned: %w", err)
	}
	e.mu.Lock()
	s := d.Strategy
	e.last = &s
	e.mu.Unlock()
	annotateSpan(dev, d)
	var p impls.Plan
	if shared {
		p, err = chosen.PlanShared(dev, cfg)
	} else {
		p, err = chosen.Plan(dev, cfg)
	}
	if err != nil {
		// %w keeps gpusim.OOMError visible to errors.As in the sweeps.
		return nil, fmt.Errorf("autotuned (%s, %s): %w", d.Engine, d.Reason, err)
	}
	return p, nil
}

// spanCurrent is the slice of telemetry.Recorder the engine needs: the
// span currently attached to the device's event sink.
type spanCurrent interface{ Current() *telemetry.Span }

// annotateSpan records the decision on the span currently collecting
// the device's events, so every measurement of an autotuned plan
// carries which engine ran and what the planner expected it to cost —
// predicted-vs-measured is then a trace query, not a log dig.
func annotateSpan(dev *gpusim.Device, d Decision) {
	sc, ok := dev.Sink().(spanCurrent)
	if !ok {
		return
	}
	sp := sc.Current()
	if sp == nil {
		return
	}
	sp.SetAttr("planner.engine", d.Engine).
		SetAttr("planner.strategy", d.Strategy.String()).
		SetAttr("planner.reason", d.Reason).
		SetAttr("planner.predicted", d.Predicted.String()).
		SetAttr("planner.cached", fmt.Sprint(d.FromCache))
}
