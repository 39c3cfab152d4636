package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestHistogramEmpty locks the reporting contract: an empty histogram
// returns 0 from every summary accessor — never the ±Inf/NaN tracking
// sentinels — so unpopulated cells print as 0 in reports.
func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{h.Mean(), h.P99(), h.Quantile(0), h.Quantile(0.5), h.Quantile(1)} {
		if v != 0 {
			t.Errorf("empty histogram reported %v, want 0", v)
		}
	}
}

// TestHistogramSingleSample: with one recorded value every summary
// statistic is that value.
func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Record(42)
	if h.count != 1 {
		t.Fatalf("Count = %d, want 1", h.count)
	}
	if lo, hi := h.Quantile(0), h.Quantile(1); lo != 42 || hi != 42 {
		t.Errorf("Quantile(0)/Quantile(1) = %v/%v, want 42/42", lo, hi)
	}
	if m := h.Mean(); math.Abs(m-42) > 1e-9 {
		t.Errorf("Mean = %v, want 42", m)
	}
	// Quantiles are bucket-resolution approximations; they must stay
	// within the ~5% relative error of the bucket layout.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h.Quantile(q); math.Abs(v-42)/42 > 0.05 {
			t.Errorf("Quantile(%v) = %v, want ~42", q, v)
		}
	}
}

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(float64(i))
	}
	if h.count != 100 {
		t.Fatalf("Count = %d", h.count)
	}
	if m := h.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Errorf("Mean = %v, want 50.5", m)
	}
	if lo, hi := h.Quantile(0), h.Quantile(1); lo != 1 || hi != 100 {
		t.Errorf("Quantile(0)/Quantile(1) = %v/%v", lo, hi)
	}
	// p99 of 1..100 should land near 99 (within bucket resolution ~5%).
	p := h.P99()
	if p < 90 || p > 100 {
		t.Errorf("P99 = %v, want ~99", p)
	}
	// Median near 50.
	med := h.Quantile(0.5)
	if med < 45 || med > 55 {
		t.Errorf("median = %v, want ~50", med)
	}
}

func TestHistogramIgnoresInvalid(t *testing.T) {
	h := NewHistogram()
	h.Record(-1)
	h.Record(math.NaN())
	if h.count != 0 {
		t.Errorf("invalid values recorded: count = %d", h.count)
	}
}

func TestHistogramExtremeQuantiles(t *testing.T) {
	h := NewHistogram()
	h.Record(10)
	h.Record(1000)
	if h.Quantile(0) != 10 {
		t.Errorf("Quantile(0) = %v", h.Quantile(0))
	}
	if h.Quantile(1) != 1000 {
		t.Errorf("Quantile(1) = %v", h.Quantile(1))
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Property: for lognormal-ish data, histogram quantiles stay within
	// ~10% of exact quantiles.
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	vals := make([]float64, 20000)
	for i := range vals {
		vals[i] = math.Exp(rng.NormFloat64()*1.5 + 5)
		h.Record(vals[i])
	}
	slices.Sort(vals)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := vals[int(math.Ceil(q*float64(len(vals))))-1] // nearest rank
		approx := h.Quantile(q)
		if math.Abs(approx-exact)/exact > 0.10 {
			t.Errorf("q=%v: approx %v vs exact %v", q, approx, exact)
		}
	}
}

func TestHistogramMonotoneQuantiles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram()
		for i := 0; i < 200; i++ {
			h.Record(rng.Float64() * 1e6)
		}
		prev := -1.0
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
