package main

import (
	"fmt"
	"sort"
	"time"
)

// samples is one operation type's latencies.
type samples []time.Duration

// quantile returns the q-quantile by linear interpolation between order
// statistics (q in [0, 1]).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := make([]float64, len(s))
	for i, d := range s {
		v[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

func (s samples) medianUS() float64 { return s.quantile(0.5) }

// tail names the highest of the usual percentiles that still has at least
// ten samples beyond it. With fewer than forty samples only the median is
// meaningful.
func (s samples) tail() string {
	n := len(s)
	if n < 40 {
		return fmt.Sprintf("p50=%.1fus n=%d (too few samples for a tail)", s.medianUS(), n)
	}
	best := 0.5
	for _, p := range []float64{0.75, 0.9, 0.95, 0.99, 0.999, 0.9999} {
		if float64(n)*(1-p) >= 10 {
			best = p
		}
	}
	return fmt.Sprintf("p50=%.1fus p%g=%.1fus n=%d beyond=%d", s.medianUS(), best*100, s.quantile(best), n, int(float64(n)*(1-best)+0.5))
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}
