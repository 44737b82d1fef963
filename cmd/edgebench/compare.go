package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints every workload × end-to-end metric of two result
// files, baseline a against candidate b, with both medians and quartiles
// and the change against the metric's bound. It reports false when any
// metric regressed, any count differs, or a workload is missing from b.
func compareReports(pathA, pathB string, out io.Writer) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(out, "%-20s %-22s %-34s %-34s %8s %6s  %s\n", "workload", "metric",
		"a median [q1, q3]", "b median [q1, q3]", "change", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := findWorkload(b, wa.Name)
		if wb == nil {
			fmt.Fprintf(out, "%-20s missing from %s\n", wa.Name, pathB)
			ok = false
			continue
		}
		for _, d := range endToEnd {
			ma, mb := wa.Metrics[d.name], wb.Metrics[d.name]
			if ma == nil || mb == nil {
				continue
			}
			v, change := verdict(d, ma, mb)
			if v == "REGRESSION" || v == "MISMATCH" {
				ok = false
			}
			fmt.Fprintf(out, "%-20s %-22s %-34s %-34s %+7.1f%% %5.0f%%  %s\n", wa.Name, d.name,
				quartiles(ma), quartiles(mb), 100*change, 100*d.bound, v)
		}
	}
	return ok, nil
}

func findWorkload(r *report, name string) *wresult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func quartiles(m *metric) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", m.Value, m.Q1, m.Q3)
}

// verdict judges candidate b against baseline a. change is the relative
// change of the reported value, signed so that positive is worse. A count
// must match exactly. A timing is "unresolved" when the spread of either
// side's value exceeds the bound, unless every run of b reads better than
// every run of a.
func verdict(d metricDef, a, b *metric) (string, float64) {
	change := 0.0
	if a.Value != 0 {
		change = (b.Value - a.Value) / math.Abs(a.Value)
	}
	if d.better == "higher" {
		change = -change
	}
	if d.exact {
		if math.Float64bits(a.Value) == math.Float64bits(b.Value) {
			return "match", change
		}
		return "MISMATCH", change
	}
	if math.Max(valueSpread(d, a), valueSpread(d, b)) > d.bound {
		if allBetter(d, a.Samples, b.Samples) {
			return "better", change
		}
		return "unresolved", change
	}
	switch {
	case change > d.bound:
		return "REGRESSION", change
	case change < -d.bound:
		return "better", change
	}
	return "ok", change
}

// valueSpread estimates the spread of a metric's value from its samples,
// one per instance: a mean of n samples spreads about 1/√n as much as one
// sample does, a median about 1.25/√n. A sample's spread holds the variety
// of the instances as well as the timing noise.
func valueSpread(d metricDef, m *metric) float64 {
	n := len(m.Samples)
	if n < 2 {
		return 0
	}
	f := 1.2533
	if d.mean {
		f = 1
	}
	return m.spread() * f / math.Sqrt(float64(n))
}

// allBetter reports whether every sample of b beats every sample of a.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	worstB, bestA := sorted(b), sorted(a)
	if d.better == "higher" {
		return worstB[0] > bestA[len(bestA)-1]
	}
	return worstB[len(worstB)-1] < bestA[0]
}
