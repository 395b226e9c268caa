package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is left as it was.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method): the estimator the acceptance rule of this benchmark is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(2), at(3)
}

// opSample is one completed operation: when it completed and how long it
// took.
type opSample struct {
	at int64 // UnixNano
	ms float64
}

// statChunks is how many contiguous pieces a window is cut into before a
// statistic is taken: the reported value is the median of the per-piece
// values, so one disturbed second on a shared host moves one piece, not the
// result.
const statChunks = 5

func durations(samples []opSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}

// chunkedQuantile cuts the time-ordered samples into statChunks pieces of
// equal count and returns the median of the pieces' q-quantiles. Too few
// samples to leave every piece twenty fall back to one pooled quantile.
func chunkedQuantile(samples []opSample, q float64) float64 {
	n := len(samples) / statChunks
	if n < 20 {
		return quantile(durations(samples), q)
	}
	per := make([]float64, statChunks)
	for i := range per {
		per[i] = quantile(durations(samples[i*n:(i+1)*n]), q)
	}
	return median(per)
}

// chunkedRate returns completions per second after start: the median, over
// statChunks pieces of equal count, of each piece's count over the time from
// the previous piece's last completion to its own.
func chunkedRate(samples []opSample, start int64) float64 {
	k := statChunks
	if len(samples) < 20*k {
		k = 1
	}
	n := len(samples) / k
	if n == 0 {
		return 0
	}
	rates := make([]float64, k)
	prev := start
	for i := range rates {
		last := samples[(i+1)*n-1].at
		rates[i] = float64(n) / (float64(last-prev) / 1e9)
		prev = last
	}
	return median(rates)
}
