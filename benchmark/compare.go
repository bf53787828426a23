package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readReports reads a file of reports written by -json, one per line.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// samples groups each metric's values by workload and trace mode.
type sampleKey struct {
	workload string
	trace    bool
	metric   string
}

func samples(rs []report) map[sampleKey][]float64 {
	out := map[sampleKey][]float64{}
	for _, r := range rs {
		for name, v := range r.Metrics {
			k := sampleKey{r.Workload, r.Trace, name}
			out[k] = append(out[k], v)
		}
	}
	return out
}

// compareFiles prints, per workload and metric, each file's median and
// spread (the distance between the quartiles as a share of the median)
// and the change from a to b. A change worse than the metric's bound in
// BENCHMARK.json is flagged; per-layer metrics have no bound and are
// never flagged. It reports whether nothing was flagged.
func compareFiles(w io.Writer, spec *benchSpec, a, b string) (bool, error) {
	ra, err := readReports(a)
	if err != nil {
		return false, err
	}
	rb, err := readReports(b)
	if err != nil {
		return false, err
	}
	sa, sb := samples(ra), samples(rb)
	keys := make([]sampleKey, 0, len(sa))
	for k := range sa {
		if _, ok := sb[k]; ok {
			keys = append(keys, k)
		}
	}
	// Metrics in the order BENCHMARK.json lists them, end-to-end first.
	order := map[string]int{}
	for i, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		order[d.Name] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return order[keys[i].metric] < order[keys[j].metric]
	})
	ok := true
	fmt.Fprintf(w, "%-24s %-30s %-8s %5s %12s %7s %5s %12s %7s %8s %6s\n",
		"workload", "metric", "unit", "n(a)", "median(a)", "iqr(a)", "n(b)", "median(b)", "iqr(b)", "change", "bound")
	for _, k := range keys {
		d, _ := spec.def(k.metric)
		xa, xb := sa[k], sb[k]
		ma, mb := median(xa), median(xb)
		change := (mb - ma) / ma
		flag, bound := "", "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			if worse > d.Bound {
				flag, ok = "  WORSE", false
			}
		}
		fmt.Fprintf(w, "%-24s %-30s %-8s %5d %12.4f %6.1f%% %5d %12.4f %6.1f%% %+7.1f%% %6s%s\n",
			k.workload, k.metric, d.Unit, len(xa), ma, 100*spread(xa), len(xb), mb, 100*spread(xb), 100*change, bound, flag)
	}
	return ok, nil
}

// spread is the distance between the first and third quartiles as a
// share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
