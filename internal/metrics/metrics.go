// Package metrics provides the latency histogram the simulation engine
// records per-request cycles into: logarithmic buckets with about 4 %
// relative resolution, read back as the mean and the p99 every result
// reports. The other per-run signals are plain counters kept by the
// layers themselves (TLB statistics, buddy FMFI); Algorithm 1 takes its
// TLB-miss delta straight from TLB.Stats().Misses.
//
// See DESIGN.md §4 (fidelity targets) for which metrics each figure
// reports.
package metrics

import "math"

// Histogram is a latency histogram with logarithmic buckets. Values are
// recorded in abstract cycles; the bucket layout covers 1 cycle to ~1e12
// with ~4% relative resolution, sufficient for mean and p99 reporting.
type Histogram struct {
	buckets []uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

// bucketsPerDecade controls resolution: 64 buckets per factor of 10.
const bucketsPerDecade = 64

// maxDecades bounds the value range at 1e12.
const maxDecades = 12

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		buckets: make([]uint64, bucketsPerDecade*maxDecades+1),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

func (h *Histogram) bucketIndex(v float64) int {
	if v < 1 {
		return 0
	}
	idx := int(math.Log10(v) * bucketsPerDecade)
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	return idx
}

// bucketValue returns a representative value for bucket i (geometric
// midpoint of the bucket's range).
func (h *Histogram) bucketValue(i int) float64 {
	return math.Pow(10, (float64(i)+0.5)/bucketsPerDecade)
}

// Record adds one observation.
func (h *Histogram) Record(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	h.buckets[h.bucketIndex(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Mean returns the arithmetic mean of all observations, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the value at quantile q in [0,1], approximated by the
// bucket layout. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			v := h.bucketValue(i)
			// Clamp to observed extremes: bucket midpoints can
			// over/undershoot for sparse histograms.
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// P99 is shorthand for Quantile(0.99).
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }
