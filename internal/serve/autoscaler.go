package serve

import (
	"fmt"
	"sync"
	"time"

	"gpucnn/internal/obs"
	"gpucnn/internal/par"
	"gpucnn/internal/telemetry"
)

// AutoscaleConfig tunes the fleet autoscaler. Zero values take the
// documented defaults.
type AutoscaleConfig struct {
	// Min and Max bound the replica count. Defaults 1 and 8.
	Min, Max int
	// Interval paces the tick loop. 0 means 1 s under the wall clock
	// and manual Tick under a fake one (mirroring obs.MonitorConfig);
	// negative forces manual Tick.
	Interval time.Duration
	// ScaleOutAfter is the consecutive non-OK ticks required before a
	// scale-out — the burn must be sustained, not a blip. Default 2.
	ScaleOutAfter int
	// ScaleInAfter is the consecutive cold ticks required before a
	// scale-in. Default 5.
	ScaleInAfter int
	// Cooldown is the ticks after any scale event during which the
	// autoscaler holds still, letting the new membership's effect reach
	// the burn windows before judging again (hysteresis). Default 3.
	Cooldown int
}

func (c AutoscaleConfig) withDefaults() AutoscaleConfig {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 8
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.ScaleOutAfter <= 0 {
		c.ScaleOutAfter = 2
	}
	if c.ScaleInAfter <= 0 {
		c.ScaleInAfter = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 3
	}
	return c
}

// ScaleEvent records one autoscaler decision.
type ScaleEvent struct {
	At       time.Time
	From, To int
	Reason   string
}

func (e ScaleEvent) String() string {
	dir := "+"
	if e.To < e.From {
		dir = "-"
	}
	return fmt.Sprintf("[%s] %d→%d (%s)", dir, e.From, e.To, e.Reason)
}

// Autoscaler drives the fleet's replica count off the fleet monitor's
// burn-rate states: sustained WARN/PAGE scales out, a sustained cold
// fleet scales in its least-trafficked replica, and cooldown plus
// consecutive-tick thresholds provide the hysteresis that keeps the
// pool from flapping. Under a fake plane clock it never self-ticks —
// tests call Tick after each clock advance, exactly like Monitor.Eval.
type Autoscaler struct {
	f   *Fleet
	cfg AutoscaleConfig

	mu            sync.Mutex
	hot, cold     int
	cooldown      int
	lastSubmitted map[int]int64
	events        []ScaleEvent
	stopped       bool

	stopCh chan struct{}
	done   chan struct{}
}

// maxScaleEvents bounds the kept event log.
const maxScaleEvents = 256

// coldPerReplica is the admitted-requests-per-tick-per-replica rate at
// or below which a tick counts cold.
const coldPerReplica = 1

func newAutoscaler(f *Fleet, cfg AutoscaleConfig) *Autoscaler {
	a := &Autoscaler{
		f:             f,
		cfg:           cfg,
		lastSubmitted: map[int]int64{},
		stopCh:        make(chan struct{}),
		done:          make(chan struct{}),
	}
	interval := cfg.Interval
	if interval == 0 && telemetry.IsWall(f.plane.Clock()) {
		interval = time.Second
	}
	if interval > 0 {
		par.Go("serve.autoscaler", func() { a.loop(interval) })
	} else {
		close(a.done)
	}
	f.plane.Section("autoscaler", a.dashSection)
	return a
}

func (a *Autoscaler) loop(interval time.Duration) {
	defer close(a.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-a.stopCh:
			return
		case <-t.C:
			a.Tick()
		}
	}
}

// Tick evaluates the fleet monitor and applies at most one scale
// decision, returning the event it caused (usually nil). The ticker
// calls it under the wall clock; fake-clock tests call it directly
// after each Advance.
func (a *Autoscaler) Tick() *ScaleEvent {
	m := a.f.Monitor()
	if m != nil {
		m.Eval() // refresh burn states against the (possibly fake) clock
	}
	worst := m.Worst()
	size := a.f.Size()

	// Per-replica admitted deltas since the last tick: the scale-in
	// coldness signal and the victim selector.
	stats := a.f.Stats()
	deltas := map[int]int64{}
	var total int64
	for id, st := range stats.PerReplica {
		d := st.Submitted - a.lastSubmitted[id]
		deltas[id] = d
		total += d
	}

	// Decide under the lock, but never hold it across the scale
	// operations: scaleIn drains the victim replica (WaitGroup.Wait
	// behind the replica's Close), and holding a.mu through that drain
	// would stall Events, the dashboard section and stop() for its
	// whole duration — the lockheld analyzer's canonical finding.
	a.mu.Lock()
	a.lastSubmitted = map[int]int64{}
	for id, st := range stats.PerReplica {
		a.lastSubmitted[id] = st.Submitted
	}

	if worst >= obs.WARN {
		a.hot++
		a.cold = 0
	} else {
		a.hot = 0
		perReplica := float64(total)
		if size > 0 {
			perReplica /= float64(size)
		}
		if worst == obs.OK && perReplica <= coldPerReplica {
			a.cold++
		} else {
			a.cold = 0
		}
	}

	if a.cooldown > 0 {
		a.cooldown--
		a.mu.Unlock()
		return nil
	}

	var doOut, doIn bool
	var victim int
	switch {
	case a.hot >= a.cfg.ScaleOutAfter && size < a.cfg.Max:
		doOut = true
	case a.cold >= a.cfg.ScaleInAfter && size > a.cfg.Min:
		victim, doIn = coldestReplica(deltas)
	}
	a.mu.Unlock()

	switch {
	case doOut:
		to, err := a.f.scaleOut()
		if err != nil {
			return nil
		}
		a.mu.Lock()
		defer a.mu.Unlock()
		a.hot = 0
		a.cooldown = a.cfg.Cooldown
		return a.record(size, to, fmt.Sprintf("slo burn %s", worst))
	case doIn:
		to := a.f.scaleIn(victim)
		if to == size {
			return nil
		}
		a.mu.Lock()
		defer a.mu.Unlock()
		a.cold = 0
		a.cooldown = a.cfg.Cooldown
		return a.record(size, to, fmt.Sprintf("idle replica %d", victim))
	}
	return nil
}

// coldestReplica picks the replica with the smallest traffic delta,
// breaking ties toward the highest id so the founding replicas
// survive longest (stable hash arcs for the steady keys).
func coldestReplica(deltas map[int]int64) (int, bool) {
	victim, ok := 0, false
	var min int64
	for id, d := range deltas {
		if !ok || d < min || (d == min && id > victim) {
			victim, min, ok = id, d, true
		}
	}
	return victim, ok
}

// record appends the event under a.mu (held by Tick).
func (a *Autoscaler) record(from, to int, reason string) *ScaleEvent {
	e := ScaleEvent{At: a.f.plane.Clock().Now(), From: from, To: to, Reason: reason}
	a.events = append(a.events, e)
	if len(a.events) > maxScaleEvents {
		a.events = a.events[len(a.events)-maxScaleEvents:]
	}
	return &e
}

// Events returns the recorded scale decisions, oldest first.
func (a *Autoscaler) Events() []ScaleEvent {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]ScaleEvent(nil), a.events...)
}

// dashSection feeds the plane's "autoscaler" dashboard section.
func (a *Autoscaler) dashSection() map[string]any {
	a.mu.Lock()
	defer a.mu.Unlock()
	sec := map[string]any{
		"hot_ticks":  a.hot,
		"cold_ticks": a.cold,
		"cooldown":   a.cooldown,
		"events":     len(a.events),
	}
	if n := len(a.events); n > 0 {
		sec["last_event"] = a.events[n-1].String()
	}
	return sec
}

// stop halts the tick loop. Nil-safe and idempotent; Fleet.Close calls
// it.
func (a *Autoscaler) stop() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	a.stopped = true
	a.mu.Unlock()
	close(a.stopCh)
	<-a.done
}
