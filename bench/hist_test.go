package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// exactQuantile is the nearest-rank quantile of sorted values, the
// definition Histogram.Quantile approximates.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestHistogramMatchesExactPercentiles records latency-like samples into
// per-client histograms, merges them, and checks every reported percentile
// against the exact sorted percentile to within 1%.
func TestHistogramMatchesExactPercentiles(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	dists := map[string]func() int64{
		"uniform-small": func() int64 { return rng.Int64N(200) },
		"lognormal-us":  func() int64 { return int64(math.Exp(rng.NormFloat64()*1.5 + 7)) },
		// A bimodal mix like mixed-tier's: fast DRBG reads and slow raw ones.
		"bimodal": func() int64 {
			if rng.IntN(64) == 0 {
				return 3_000_000 + rng.Int64N(20_000_000)
			}
			return 400 + rng.Int64N(600)
		},
	}
	for name, draw := range dists {
		var clients [3]Histogram
		var all []int64
		for i := 0; i < 200_000; i++ {
			v := draw()
			clients[i%len(clients)].Record(v)
			all = append(all, v)
		}
		var h Histogram
		for i := range clients {
			h.Merge(&clients[i])
		}
		if h.Count() != uint64(len(all)) {
			t.Fatalf("%s: merged count %d, want %d", name, h.Count(), len(all))
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for _, q := range []float64{0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			want, got := exactQuantile(all, q), h.Quantile(q)
			if math.Abs(float64(got-want)) > 0.01*float64(want) {
				t.Errorf("%s: q%.3f = %d, exact %d (error above 1%%)", name, q, got, want)
			}
		}
	}
}

func TestHistogramRecordDoesNotAllocate(t *testing.T) {
	var h Histogram
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() { h.Record(v); v = v*3 + 1 }); n != 0 {
		t.Fatalf("Record allocates %v times per call", n)
	}
}
