package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// spliceLabel appends one pre-rendered k="v" pair to a rendered label
// set ("" or "{...}").
func spliceLabel(key, kv string) string {
	if key == "" {
		return "{" + kv + "}"
	}
	return key[:len(key)-1] + "," + kv + "}"
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per family, histograms as
// cumulative le buckets plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	prev := ""
	for _, s := range r.Series() {
		if s.Name != prev {
			prev = s.Name
			if s.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.Name, s.Help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.Name, s.Type)
		}
		switch inst := s.Inst.(type) {
		case *Counter:
			fmt.Fprintf(&b, "%s%s %s\n", s.Name, s.Labels, formatFloat(inst.Value()))
		case *Gauge:
			fmt.Fprintf(&b, "%s%s %s\n", s.Name, s.Labels, formatFloat(inst.Value()))
		case *Histogram:
			snap := inst.Snapshot()
			for i, bound := range snap.Bounds {
				le := spliceLabel(s.Labels, fmt.Sprintf("le=%q", formatFloat(bound)))
				fmt.Fprintf(&b, "%s_bucket%s %d\n", s.Name, le, snap.Cumulative[i])
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", s.Name, spliceLabel(s.Labels, `le="+Inf"`), snap.Count)
			fmt.Fprintf(&b, "%s_sum%s %s\n", s.Name, s.Labels, formatFloat(snap.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", s.Name, s.Labels, snap.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// MetricsSnapshot is the JSON form of the registry.
type MetricsSnapshot struct {
	Counters   map[string]float64           `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures all series, keyed by name plus rendered labels.
func (r *Registry) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Counters:   map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, s := range r.Series() {
		switch inst := s.Inst.(type) {
		case *Counter:
			snap.Counters[s.Name+s.Labels] = inst.Value()
		case *Gauge:
			snap.Gauges[s.Name+s.Labels] = inst.Value()
		case *Histogram:
			snap.Histograms[s.Name+s.Labels] = inst.Snapshot()
		}
	}
	return snap
}

// WriteJSON renders the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
