package main

import "sort"

// summary is a sample with its median and quartiles.
type summary struct {
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summarize computes the median and the quartiles of xs. The quartiles use
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads printed here match an external check of the same samples.
func summarize(xs []float64) summary {
	s := sorted(xs)
	out := summary{Samples: xs}
	m := len(s)
	switch {
	case m == 0:
		return out
	case m == 1:
		out.Median, out.Q1, out.Q3 = s[0], s[0], s[0]
		return out
	}
	if m%2 == 1 {
		out.Median = s[m/2]
	} else {
		out.Median = (s[m/2-1] + s[m/2]) / 2
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out.Q1, out.Q3 = q(1), q(3)
	return out
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return summarize(xs).Median }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
