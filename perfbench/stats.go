package main

import (
	"slices"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted:
// the smallest value with at least q of the samples at or below it.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.999999999)
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// beyond is how many samples lie strictly above the q-quantile's rank —
// the sample support of a tail percentile.
func beyond(n int, q float64) int {
	rank := int(q*float64(n) + 0.999999999)
	return n - min(max(rank, 1), n)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// windowStats are the latency and throughput figures of one window.
type windowStats struct {
	n        int
	rps      float64
	p50, p99 time.Duration
	steal    float64       // share of host CPU time the hypervisor stole
	cpu      time.Duration // gateway CPU time
}

// windows splits packed samples (see loadResult) into consecutive
// windows of width w over [0, span) and computes each window's figures.
// A trailing partial window is dropped.
func windows(parts [][]uint64, span, w time.Duration) []windowStats {
	nw := int(span / w)
	if nw < 1 {
		return nil
	}
	lat := make([][]int64, nw)
	for _, p := range parts {
		for _, s := range p {
			at := time.Duration(s>>32) * time.Microsecond
			i := int(at / w)
			if i < nw {
				lat[i] = append(lat[i], int64(s&0xFFFFFFFF))
			}
		}
	}
	out := make([]windowStats, nw)
	for i, l := range lat {
		slices.Sort(l)
		out[i] = windowStats{
			n:   len(l),
			rps: float64(len(l)) / w.Seconds(),
			p50: time.Duration(percentile(l, 0.50)),
			p99: time.Duration(percentile(l, 0.99)),
		}
	}
	return out
}
