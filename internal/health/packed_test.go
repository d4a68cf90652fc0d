package health

import (
	"math/rand/v2"
	"testing"
)

// packBits packs a bit-per-byte stream MSB-first, the encoding IngestPacked
// consumes.
func packBits(bits []byte) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b != 0 {
			out[i>>3] |= 1 << uint(7-i&7)
		}
	}
	return out
}

// streamFor builds adversarial test streams: random at a bias, with runs and
// stutters spliced in so the RCT/APT fast-path boundaries are exercised.
func streamFor(rng *rand.Rand, n int, kind int) []byte {
	out := make([]byte, n)
	switch kind {
	case 0: // fair coin
		for i := range out {
			out[i] = byte(rng.IntN(2))
		}
	case 1: // biased
		for i := range out {
			if rng.Float64() < 0.8 {
				out[i] = 1
			}
		}
	case 2: // runs of random length
		for i := 0; i < n; {
			b := byte(rng.IntN(2))
			l := 1 + rng.IntN(40)
			for j := 0; j < l && i < n; j++ {
				out[i] = b
				i++
			}
		}
	case 3: // 0101 stutter with occasional noise
		for i := range out {
			out[i] = byte(i & 1)
			if rng.IntN(97) == 0 {
				out[i] ^= 1
			}
		}
	case 4: // stuck
		for i := range out {
			out[i] = 1
		}
	}
	return out
}

// TestIngestPackedEquivalence is the acceptance property test: for random
// streams and randomized chunk boundaries, IngestPacked must return the same
// violations and leave the same counters as Ingest over the bit-per-byte
// stream — for 1-bit symbols (the popcount/run-scan fast path) and for wider
// symbol widths (the packed symbol-extraction path).
func TestIngestPackedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for _, symbolBits := range []int{1, 2, 4, 8} {
		for kind := 0; kind < 5; kind++ {
			for trial := 0; trial < 20; trial++ {
				cfg := Config{SymbolBits: symbolBits}
				if trial%3 == 1 {
					// Small windows make boundary crossings frequent.
					cfg.BiasWindowBits = 64 + rng.IntN(256)
					cfg.APTWindow = 16 + rng.IntN(64)
				}
				ref, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				packed, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				stream := streamFor(rng, 512+rng.IntN(4096), kind)
				// Feed both monitors the same stream in the same chunking; a
				// violation drops the rest of the chunk on both sides, so the
				// logical streams stay aligned.
				for off := 0; off < len(stream); {
					n := 1 + rng.IntN(300)
					if off+n > len(stream) {
						n = len(stream) - off
					}
					chunk := stream[off : off+n]
					vRef := ref.Ingest(chunk)
					vPacked := packed.IngestPacked(packBits(chunk), n)
					if (vRef == nil) != (vPacked == nil) {
						t.Fatalf("symbol=%d kind=%d trial=%d off=%d: violation mismatch: ref=%v packed=%v",
							symbolBits, kind, trial, off, vRef, vPacked)
					}
					if vRef != nil && (vRef.Test != vPacked.Test || vRef.Detail != vPacked.Detail) {
						t.Fatalf("symbol=%d kind=%d trial=%d: violation differs:\n ref:    %s: %s\n packed: %s: %s",
							symbolBits, kind, trial, vRef.Test, vRef.Detail, vPacked.Test, vPacked.Detail)
					}
					if ref.Counters() != packed.Counters() {
						t.Fatalf("symbol=%d kind=%d trial=%d off=%d n=%d: counters diverge:\n ref:    %+v\n packed: %+v",
							symbolBits, kind, trial, off, n, ref.Counters(), packed.Counters())
					}
					off += n
				}
			}
		}
	}
}

// TestIngestPackedPartialByte: nbits smaller than the packed buffer's
// capacity only consumes nbits bits.
func TestIngestPackedPartialByte(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.IngestPacked([]byte{0xFF, 0xFF}, 11); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	c := m.Counters()
	if c.BitsTested != 11 || c.SymbolsTested != 11 {
		t.Fatalf("counters = %+v, want 11 bits/symbols", c)
	}
	if c.LongestRun != 11 {
		t.Fatalf("LongestRun = %d, want 11", c.LongestRun)
	}
}

// TestIngestPackedEquivalenceWithProbe: with a temperature probe attached,
// IngestPacked reads the probe at the same windows as Ingest and trips
// "temp" at the same bits with the same details and counters, for random
// chunkings and window sizes.
func TestIngestPackedEquivalenceWithProbe(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	// heating returns a probe that warms by 4 °C per reading: the baseline
	// plus two clean windows, then a trip on the third.
	heating := func() func() float64 {
		tempC := 45.0
		return func() float64 { tempC += 4; return tempC }
	}
	tempTrips := int64(0)
	for trial := 0; trial < 20; trial++ {
		window := 64 + rng.IntN(256)
		ref := mustMonitor(t, Config{BiasWindowBits: window, MaxBiasDelta: -1, Temperature: heating()})
		packed := mustMonitor(t, Config{BiasWindowBits: window, MaxBiasDelta: -1, Temperature: heating()})
		stream := streamFor(rng, 2048+rng.IntN(4096), 0)
		for off := 0; off < len(stream); {
			n := 1 + rng.IntN(300)
			if off+n > len(stream) {
				n = len(stream) - off
			}
			chunk := stream[off : off+n]
			vRef := ref.Ingest(chunk)
			vPacked := packed.IngestPacked(packBits(chunk), n)
			if (vRef == nil) != (vPacked == nil) || (vRef != nil && *vRef != *vPacked) {
				t.Fatalf("trial=%d off=%d: violation mismatch: ref=%v packed=%v", trial, off, vRef, vPacked)
			}
			if ref.Counters() != packed.Counters() {
				t.Fatalf("trial=%d off=%d n=%d: counters diverge:\n ref:    %+v\n packed: %+v",
					trial, off, n, ref.Counters(), packed.Counters())
			}
			if vRef != nil {
				// Re-baseline both so trips keep recurring every third window.
				ref.Rebaseline()
				packed.Rebaseline()
			}
			off += n
		}
		tempTrips += ref.Counters().TempTrips
	}
	if tempTrips == 0 {
		t.Fatal("no trial tripped the temperature check")
	}
}
