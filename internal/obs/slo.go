package obs

import (
	"fmt"
	"sync"
	"time"

	"gpucnn/internal/par"
	"gpucnn/internal/telemetry"
)

// State is an SLO alert level.
type State int

const (
	// OK: both burn windows inside budget.
	OK State = iota
	// WARN: sustained burn above WarnBurn in both windows — at this
	// pace the error budget dies well before the period ends.
	WARN
	// PAGE: burn above PageBurn in both windows — budget exhaustion is
	// imminent; a human (or the load shedder) must act now.
	PAGE
)

func (s State) String() string {
	switch s {
	case OK:
		return "OK"
	case WARN:
		return "WARN"
	case PAGE:
		return "PAGE"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Objective is one service-level objective the monitor evaluates: a
// name, an error budget (the tolerated bad fraction), and the observed
// bad fraction over an arbitrary trailing window.
type Objective interface {
	Name() string
	Budget() float64
	BadFraction(window time.Duration) float64
}

// LatencyObjective is "quantile latency under threshold": the bad
// fraction is the share of observations slower than Threshold seconds
// across every series of the histogram family Family in Reg, and the
// budget is 1−Target (Target 0.99 tolerates 1% slow). Reading the
// whole family makes one objective cover every replica or engine
// writing it. Align Threshold with a bucket bound of the family —
// FractionAbove resolves at bucket granularity.
type LatencyObjective struct {
	ObjName   string
	Reg       *telemetry.Registry
	Family    string
	Threshold float64 // seconds
	Target    float64 // e.g. 0.99 for "99% of requests under Threshold"
}

// Name implements Objective.
func (o LatencyObjective) Name() string { return o.ObjName }

// Budget implements Objective.
func (o LatencyObjective) Budget() float64 { return 1 - o.Target }

// BadFraction implements Objective. An empty window reports 0: no
// traffic burns no budget, which is what lets a paged objective
// recover once the overload clears.
func (o LatencyObjective) BadFraction(w time.Duration) float64 {
	var bad, total float64
	for _, s := range family(o.Reg, o.Family) {
		if h, ok := s.(*telemetry.Histogram); ok {
			snap := h.Window(w)
			bad += snap.FractionAbove(o.Threshold) * float64(snap.Count)
			total += float64(snap.Count)
		}
	}
	if total == 0 {
		return 0
	}
	return bad / total
}

// RateObjective is "bad events under a fraction of all events": shed
// rate, failure rate. Bad and Good name counter families in Reg whose
// windowed sums, over all their series, count the two outcomes.
// MaxRate is both the budget and the threshold — a shed-rate objective
// with MaxRate 0.05 burns at 1× when exactly 5% of offered load is
// shed.
type RateObjective struct {
	ObjName   string
	Reg       *telemetry.Registry
	Bad, Good string
	MaxRate   float64
}

// Name implements Objective.
func (o RateObjective) Name() string { return o.ObjName }

// Budget implements Objective.
func (o RateObjective) Budget() float64 { return o.MaxRate }

// BadFraction implements Objective; 0 when the window saw no traffic.
func (o RateObjective) BadFraction(w time.Duration) float64 {
	bad := familySum(o.Reg, o.Bad, w)
	total := bad + familySum(o.Reg, o.Good, w)
	if total <= 0 {
		return 0
	}
	return bad / total
}

// family returns the instruments of every series of the named family.
func family(reg *telemetry.Registry, name string) []any {
	var out []any
	for _, s := range reg.Series() {
		if s.Name == name {
			out = append(out, s.Inst)
		}
	}
	return out
}

// familySum sums a counter family's windowed reads over all its series.
func familySum(reg *telemetry.Registry, name string, w time.Duration) float64 {
	var sum float64
	for _, s := range family(reg, name) {
		if c, ok := s.(*telemetry.Counter); ok {
			sum += c.Sum(w)
		}
	}
	return sum
}

// Transition is one state change of one objective.
type Transition struct {
	Objective string    `json:"objective"`
	From      State     `json:"-"`
	To        State     `json:"-"`
	FromS     string    `json:"from"`
	ToS       string    `json:"to"`
	At        time.Time `json:"at"`
	BurnFast  float64   `json:"burn_fast"`
	BurnSlow  float64   `json:"burn_slow"`
}

// ObjectiveStatus is the dashboard view of one objective.
type ObjectiveStatus struct {
	Name     string  `json:"name"`
	State    string  `json:"state"`
	Budget   float64 `json:"budget"`
	BadFast  float64 `json:"bad_fast"`
	BadSlow  float64 `json:"bad_slow"`
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
}

// MonitorConfig tunes a Monitor. Zero values mean: the wall clock,
// FastWindow/SlowWindow burn windows, and a 1 s evaluation ticker
// under the wall clock (manual Eval otherwise). Interval < 0 forces
// manual evaluation.
type MonitorConfig struct {
	Clock    telemetry.Clock
	Fast     time.Duration
	Slow     time.Duration
	Interval time.Duration
}

// Burn-rate thresholds, the classic multi-window pairing: 2× burn in
// both windows warns (budget gone in half the period), 10× pages
// (budget gone in a tenth of it).
const (
	WarnBurn = 2.0
	PageBurn = 10.0
)

// Monitor evaluates objectives with multi-window burn-rate alerting.
// The burn rate is BadFraction/Budget: 1× means exactly spending the
// error budget. A state escalates only when BOTH the fast and the slow
// window exceed the threshold — the fast window reacts in seconds but
// alone would flap on blips; the slow window confirms the burn is
// sustained. Under a sustained overload the fast window saturates
// first, then the slow window climbs through WarnBurn before PageBurn,
// so an objective visibly walks OK→WARN→PAGE rather than jumping.
//
// Every NewMonitor must be paired with Stop (the obsstop analyzer
// enforces this), even in manual-evaluation mode.
type Monitor struct {
	cfg  MonitorConfig
	objs []Objective

	mu          sync.Mutex
	states      map[string]State
	transitions []Transition
	stopped     bool

	stop chan struct{}
	done chan struct{}
}

// maxTransitions bounds the kept transition log.
const maxTransitions = 256

// NewMonitor builds a monitor over the objectives and, when an
// evaluation interval applies (see MonitorConfig), starts its ticker
// goroutine. Callers must Stop it.
func NewMonitor(cfg MonitorConfig, objs ...Objective) *Monitor {
	if cfg.Clock == nil {
		cfg.Clock = telemetry.Wall
	}
	if cfg.Fast <= 0 {
		cfg.Fast = FastWindow
	}
	if cfg.Slow <= 0 {
		cfg.Slow = SlowWindow
	}
	if cfg.Interval == 0 && telemetry.IsWall(cfg.Clock) {
		cfg.Interval = time.Second
	}
	m := &Monitor{
		cfg:    cfg,
		objs:   objs,
		states: map[string]State{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for _, o := range objs {
		m.states[o.Name()] = OK
	}
	if m.cfg.Interval > 0 {
		par.Go("obs.monitor", m.loop)
	} else {
		close(m.done)
	}
	return m
}

func (m *Monitor) loop() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.Eval()
		}
	}
}

// Eval evaluates every objective once against the monitor's clock and
// returns the transitions it caused (often none). The ticker calls it
// under the wall clock; fake-clock tests call it directly after each
// Advance.
func (m *Monitor) Eval() []Transition {
	now := m.cfg.Clock.Now()
	var fired []Transition
	for _, o := range m.objs {
		budget := o.Budget()
		if budget <= 0 {
			continue // a zero-budget objective cannot be evaluated
		}
		bf := o.BadFraction(m.cfg.Fast)
		bs := o.BadFraction(m.cfg.Slow)
		burnF, burnS := bf/budget, bs/budget
		next := OK
		switch {
		case burnF >= PageBurn && burnS >= PageBurn:
			next = PAGE
		case burnF >= WarnBurn && burnS >= WarnBurn:
			next = WARN
		}
		m.mu.Lock()
		prev := m.states[o.Name()]
		if next != prev {
			m.states[o.Name()] = next
			t := Transition{
				Objective: o.Name(),
				From:      prev, To: next,
				FromS: prev.String(), ToS: next.String(),
				At:       now,
				BurnFast: burnF, BurnSlow: burnS,
			}
			m.transitions = append(m.transitions, t)
			if len(m.transitions) > maxTransitions {
				m.transitions = m.transitions[len(m.transitions)-maxTransitions:]
			}
			fired = append(fired, t)
		}
		m.mu.Unlock()
	}
	return fired
}

// State returns the current state of the named objective (OK for
// unknown names).
func (m *Monitor) State(name string) State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.states[name]
}

// Worst returns the most severe current state across the monitor's
// objectives — the single consumable signal for components that key
// decisions on SLO health (the serve autoscaler scales out on a
// sustained non-OK Worst). OK for a nil monitor or one with no
// objectives.
func (m *Monitor) Worst() State {
	if m == nil {
		return OK
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	worst := OK
	for _, st := range m.states {
		if st > worst {
			worst = st
		}
	}
	return worst
}

// States returns a copy of the per-objective state map (nil for a nil
// monitor).
func (m *Monitor) States() map[string]State {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]State, len(m.states))
	for k, v := range m.states {
		out[k] = v
	}
	return out
}

// Transitions returns the recorded state changes, oldest first.
func (m *Monitor) Transitions() []Transition {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Transition(nil), m.transitions...)
}

// Status snapshots every objective for the dashboard: current state
// plus live burn rates in both windows.
func (m *Monitor) Status() []ObjectiveStatus {
	out := make([]ObjectiveStatus, 0, len(m.objs))
	for _, o := range m.objs {
		budget := o.Budget()
		bf := o.BadFraction(m.cfg.Fast)
		bs := o.BadFraction(m.cfg.Slow)
		st := ObjectiveStatus{
			Name: o.Name(), Budget: budget,
			BadFast: bf, BadSlow: bs,
		}
		if budget > 0 {
			st.BurnFast, st.BurnSlow = bf/budget, bs/budget
		}
		m.mu.Lock()
		st.State = m.states[o.Name()].String()
		m.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// Stop halts the evaluation ticker (if any) and waits for it to exit.
// Idempotent and nil-safe.
func (m *Monitor) Stop() {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	close(m.stop)
	<-m.done
}
