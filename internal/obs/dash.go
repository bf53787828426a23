package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"gpucnn/internal/telemetry"
)

// CounterStat is the dashboard view of one counter series.
type CounterStat struct {
	Name     string  `json:"name"`
	Total    float64 `json:"total"`
	SumFast  float64 `json:"sum_fast"`
	SumSlow  float64 `json:"sum_slow"`
	RateFast float64 `json:"rate_fast"` // per second
	RateSlow float64 `json:"rate_slow"`
}

// GaugeStat is the dashboard view of one gauge series.
type GaugeStat struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	MaxSlow float64 `json:"max_slow"`
}

// HistStat is the dashboard view of one histogram series; quantiles
// are 0 (not NaN) when a window is empty so the JSON stays valid.
type HistStat struct {
	Name      string    `json:"name"`
	CountFast uint64    `json:"count_fast"`
	CountSlow uint64    `json:"count_slow"`
	P50Fast   float64   `json:"p50_fast"`
	P99Fast   float64   `json:"p99_fast"`
	P50Slow   float64   `json:"p50_slow"`
	P99Slow   float64   `json:"p99_slow"`
	Series    []float64 `json:"series,omitempty"` // per-slot counts, oldest first
}

// DashSnapshot is one self-contained dashboard frame: every series of
// the plane's registry read over the fast and slow windows, SLO states
// with live burn rates, recent transitions, latest profile
// attributions and the registered info sections. Series are named by
// family plus rendered labels. It is the JSON body of /debug/dash.json
// and the input of RenderText.
type DashSnapshot struct {
	At          time.Time                 `json:"at"`
	Op          string                    `json:"op,omitempty"`
	Fast        string                    `json:"fast_window"`
	Slow        string                    `json:"slow_window"`
	Counters    []CounterStat             `json:"counters,omitempty"`
	Gauges      []GaugeStat               `json:"gauges,omitempty"`
	Histograms  []HistStat                `json:"histograms,omitempty"`
	SLOs        []ObjectiveStatus         `json:"slos,omitempty"`
	Transitions []Transition              `json:"transitions,omitempty"`
	Profiles    []Capture                 `json:"profiles,omitempty"`
	Sections    map[string]map[string]any `json:"sections,omitempty"`
	SectionKeys []string                  `json:"-"`
}

// recentTransitions caps the transition tail a snapshot carries.
const recentTransitions = 12

// Dash snapshots the plane. Safe on a nil plane (returns an empty
// frame stamped by the wall clock).
func (p *Plane) Dash() DashSnapshot {
	snap := DashSnapshot{At: p.Clock().Now(), Fast: FastWindow.String(), Slow: "0s"}
	if p == nil {
		return snap
	}
	win := p.reg.Window()
	fast := min(FastWindow, win)
	snap.Fast, snap.Slow = fast.String(), win.String()

	p.mu.Lock()
	snap.Op = p.op
	monitors := append([]*Monitor(nil), p.monitors...)
	profilers := append([]*Profiler(nil), p.profilers...)
	sections := append([]string(nil), p.secOrder...)
	secFns := make([]func() map[string]any, len(sections))
	for i, name := range sections {
		secFns[i] = p.sections[name]
	}
	p.mu.Unlock()

	// Sections first: their callbacks may sample lazily set gauges.
	if len(sections) > 0 {
		snap.Sections = map[string]map[string]any{}
		for i, name := range sections {
			snap.Sections[name] = secFns[i]()
			snap.SectionKeys = append(snap.SectionKeys, name)
		}
	}
	for _, s := range p.reg.Series() {
		name := s.Name + s.Labels
		switch inst := s.Inst.(type) {
		case *telemetry.Counter:
			snap.Counters = append(snap.Counters, CounterStat{
				Name: name, Total: inst.Value(),
				SumFast: inst.Sum(fast), SumSlow: inst.Sum(0),
				RateFast: inst.Rate(fast), RateSlow: inst.Rate(0),
			})
		case *telemetry.Gauge:
			snap.Gauges = append(snap.Gauges, GaugeStat{Name: name, Value: inst.Value(), MaxSlow: inst.Max(0)})
		case *telemetry.Histogram:
			f, sl := inst.Window(fast), inst.Window(0)
			snap.Histograms = append(snap.Histograms, HistStat{
				Name:      name,
				CountFast: f.Count, CountSlow: sl.Count,
				P50Fast: quantileOr0(f, 0.5), P99Fast: quantileOr0(f, 0.99),
				P50Slow: quantileOr0(sl, 0.5), P99Slow: quantileOr0(sl, 0.99),
				Series: inst.Series(0),
			})
		}
	}
	for _, m := range monitors {
		snap.SLOs = append(snap.SLOs, m.Status()...)
		snap.Transitions = append(snap.Transitions, m.Transitions()...)
	}
	sort.Slice(snap.Transitions, func(i, j int) bool {
		return snap.Transitions[i].At.Before(snap.Transitions[j].At)
	})
	if len(snap.Transitions) > recentTransitions {
		snap.Transitions = snap.Transitions[len(snap.Transitions)-recentTransitions:]
	}
	for _, pr := range profilers {
		for _, kind := range []string{"cpu", "heap"} {
			if c, ok := pr.Last(kind); ok {
				snap.Profiles = append(snap.Profiles, c)
			}
		}
	}
	return snap
}

// quantileOr0 returns the quantile, or 0 for an empty window
// (dashboards render 0, not NaN).
func quantileOr0(s telemetry.HistogramSnapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Quantile(q)
}

func fmtNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func fmtSecs(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

// RenderText writes the frame as an aligned plain-text dashboard — the
// body of /debug/dash and of each cmd/obswatch refresh.
func (s DashSnapshot) RenderText(w io.Writer) {
	fmt.Fprintf(w, "obs dash @ %s", s.At.Format("15:04:05.000"))
	if s.Op != "" {
		fmt.Fprintf(w, "   op=%s", s.Op)
	}
	fmt.Fprintf(w, "   windows fast=%s slow=%s\n", s.Fast, s.Slow)

	if len(s.SLOs) > 0 {
		fmt.Fprintf(w, "\nSLO%-21s %-5s %9s %10s %10s\n", "", "state", "budget", "burn-fast", "burn-slow")
		for _, o := range s.SLOs {
			fmt.Fprintf(w, "  %-22s %-5s %9.4g %10.2f %10.2f\n",
				o.Name, o.State, o.Budget, o.BurnFast, o.BurnSlow)
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintf(w, "\n%10s %10s %10s %10s %10s  %s\n",
			"n(slow)", "p50-fast", "p99-fast", "p50-slow", "p99-slow", "histogram")
		for _, h := range s.Histograms {
			f := fmtNum
			if family, _, _ := strings.Cut(h.Name, "{"); strings.HasSuffix(family, "_seconds") {
				f = fmtSecs
			}
			fmt.Fprintf(w, "%10d %10s %10s %10s %10s  %s\n",
				h.CountSlow, f(h.P50Fast), f(h.P99Fast), f(h.P50Slow), f(h.P99Slow), h.Name)
		}
	}
	if len(s.Counters) > 0 {
		fmt.Fprintf(w, "\n%12s %12s %12s  %s\n", "total", "rate-fast/s", "rate-slow/s", "counter")
		for _, c := range s.Counters {
			fmt.Fprintf(w, "%12s %12.4g %12.4g  %s\n", fmtNum(c.Total), c.RateFast, c.RateSlow, c.Name)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(w, "\n%12s %12s  %s\n", "value", "max(slow)", "gauge")
		for _, g := range s.Gauges {
			fmt.Fprintf(w, "%12s %12s  %s\n", fmtNum(g.Value), fmtNum(g.MaxSlow), g.Name)
		}
	}
	for _, name := range s.SectionKeys {
		sec := s.Sections[name]
		fmt.Fprintf(w, "\n[%s]\n", name)
		keys := make([]string, 0, len(sec))
		for k := range sec {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-22s %v\n", k, sec[k])
		}
	}
	if len(s.Profiles) > 0 {
		fmt.Fprintf(w, "\nprofiles\n")
		for _, c := range s.Profiles {
			fmt.Fprintf(w, "  %-4s @ %s", c.Kind, c.At.Format("15:04:05"))
			if c.Op != "" {
				fmt.Fprintf(w, " op=%s", c.Op)
			}
			var tops []string
			for _, f := range c.Top {
				tops = append(tops, fmt.Sprintf("%s(%d)", f.Func, f.Count))
			}
			if len(tops) > 0 {
				fmt.Fprintf(w, "  top: %s", strings.Join(tops, ", "))
			}
			fmt.Fprintln(w)
		}
	}
	if len(s.Transitions) > 0 {
		fmt.Fprintf(w, "\ntransitions\n")
		for _, t := range s.Transitions {
			fmt.Fprintf(w, "  %s  %-22s %s -> %s  (burn fast %.2f slow %.2f)\n",
				t.At.Format("15:04:05.000"), t.Objective, t.FromS, t.ToS, t.BurnFast, t.BurnSlow)
		}
	}
}

// Handler serves the plane's registry, an optional tracer and the
// dashboard from one mux:
//
//	/metrics, /       Prometheus text (JSON with ?format=json)
//	/metrics.json     registry JSON snapshot
//	/trace            Chrome trace-event JSON (when t is non-nil)
//	/debug/dash       plain-text dashboard frame
//	/debug/dash.json  DashSnapshot JSON
func Handler(p *Plane, t *telemetry.Tracer) http.Handler {
	reg := p.Registry()
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	metrics := func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			writeJSON(w, reg.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	}
	mux.HandleFunc("/", metrics)
	mux.HandleFunc("/metrics", metrics)
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, reg.Snapshot())
	})
	if t != nil {
		mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = t.WriteChrome(w)
		})
	}
	mux.HandleFunc("/debug/dash", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		p.Dash().RenderText(w)
	})
	mux.HandleFunc("/debug/dash.json", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, p.Dash())
	})
	return mux
}
