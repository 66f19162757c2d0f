package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs
// with exactly the arithmetic of Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method, which extrapolates for tiny
// samples), so the compare command and an external Python check agree
// on every spread. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durations collects timed samples for percentile reporting.
type durations []time.Duration

func (d *durations) add(x time.Duration) { *d = append(*d, x) }

// sum returns the total of the samples in seconds.
func (d durations) sum() float64 {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t.Seconds()
}

// pct returns the q-quantile (nearest rank) in milliseconds, 0 without
// samples.
func (d durations) pct(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sortDurations(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(s[i])
}

// max returns the largest sample in milliseconds.
func (d durations) max() float64 { return d.pct(1) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// ratio divides, returning 0 for a zero denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// matchEvent is the unit of match lag: one query matching on one
// stream edge. An edge that completes several embeddings of a query
// is one event, timed at its first match, so a hub edge's burst of
// matches weighs like any other edge; per-match weighting made the lag
// tail follow where each seed's bursts fell rather than the program.
type matchEvent struct {
	query string
	seq   uint64
}

// batchLags holds one pass's match-event lags, grouped by the batch
// whose edge completed the match.
type batchLags [][]time.Duration

// medianLags merges passes of one deterministic job: for every batch,
// and every rank within the batch's sorted lags, it takes the median
// over the passes, so outside load that slowed one pass does not move
// the result. half(k) says which stream half batch k belongs to.
func medianLags(passes []batchLags, half func(k int) int) (all durations, halves [2]durations) {
	if len(passes) == 0 {
		return nil, halves
	}
	vals := make([]float64, len(passes))
	for k := range passes[0] {
		n := len(passes[0][k])
		for _, p := range passes {
			sortDurations(p[k])
			n = min(n, len(p[k]))
		}
		for i := 0; i < n; i++ {
			for j, p := range passes {
				vals[j] = float64(p[k][i])
			}
			d := time.Duration(median(vals))
			all = append(all, d)
			halves[half(k)] = append(halves[half(k)], d)
		}
	}
	return all, halves
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
