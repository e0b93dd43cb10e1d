package main

import (
	"math"
	"sort"
	"time"
)

// tailMin is how many samples must lie beyond a reported tail.
const tailMin = 10

// dist summarises a latency sample: its median, and the value at the
// highest percentile that still has tailMin samples beyond it.
type dist struct {
	n       int
	p50     float64 // ms
	tail    float64 // ms
	tailPct float64 // the percentile tail sits at; 100 when n <= tailMin
}

func summarise(lat []time.Duration) dist {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	d := dist{n: len(ms), p50: median(ms), tail: math.NaN(), tailPct: 100}
	if d.n == 0 {
		return d
	}
	k := d.n - tailMin // 1-based rank with tailMin samples above it
	if k < 1 {
		k = d.n
	}
	d.tail = ms[k-1]
	d.tailPct = 100 * float64(k) / float64(d.n)
	return d
}

// median of values (sorted or not); NaN when empty.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
