package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric names it must print, with their units and regression bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// printed is the metrics a run prints: the per-layer ones when traced,
// the end-to-end ones otherwise.
func (s *benchSpec) printed(trace bool) []metricDef {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// def finds a metric by name among both lists.
func (s *benchSpec) def(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{s.EndToEnd, s.PerLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// valueUnit is one printed metric.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: whether the outputs were
// correct, how many ops were attempted and failed, and the metrics.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// result selects the run's metrics for printing: every end-to-end metric
// for an untraced run, every per-layer metric for a traced one. An
// end-to-end metric the run did not produce is an error, because each
// one is defined on every workload and is never 0. A per-layer metric of
// a layer the workload does not enter reads 0.
func (s *benchSpec) result(r *report) (result, error) {
	defs := s.printed(r.Trace)
	out := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]valueUnit{}}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !r.Trace && (!ok || v == 0) {
			return out, fmt.Errorf("workload %s produced no %s", r.Workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("workload %s: %s is %v", r.Workload, d.Name, v)
		}
		out.Metrics[d.Name] = valueUnit{Value: v, Unit: d.Unit}
	}
	for name := range r.Metrics {
		if _, ok := s.def(name); !ok {
			return out, fmt.Errorf("workload %s produced %s, which BENCHMARK.json does not list", r.Workload, name)
		}
	}
	return out, nil
}
