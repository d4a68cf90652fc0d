package postproc

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

func randomBits(rng *rand.Rand, n int, bias float64) []byte {
	out := make([]byte, n)
	for i := range out {
		if rng.Float64() < bias {
			out[i] = 1
		}
	}
	return out
}

// TestPackedRoundTrip pins the Packed encoding helpers against each other.
func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		bits := randomBits(rng, rng.IntN(300), 0.5)
		p := PackBits(bits)
		if p.Len != len(bits) {
			t.Fatalf("PackBits length %d, want %d", p.Len, len(bits))
		}
		if !bytes.Equal(p.Unpack(), bits) {
			t.Fatalf("trial %d: pack/unpack mismatch", trial)
		}
		for i, b := range bits {
			if p.Bit(i) != b {
				t.Fatalf("trial %d: bit %d = %d, want %d", trial, i, p.Bit(i), b)
			}
		}
		// Chunk/AppendChunk round-trip through a rebuilt stream.
		var q Packed
		for off := 0; off < p.Len; {
			n := 1 + rng.IntN(64)
			if off+n > p.Len {
				n = p.Len - off
			}
			q.AppendChunk(p.Chunk(off, n), n)
			off += n
		}
		if q.Len != p.Len || !bytes.Equal(q.Unpack(), bits) {
			t.Fatalf("trial %d: chunked rebuild mismatch", trial)
		}
		// Drop then Truncate cut out any window in place, with the bytes
		// (zero padding past Len included) of a freshly packed window.
		off := rng.IntN(p.Len + 1)
		n := rng.IntN(p.Len - off + 1)
		s := Packed{Data: append([]byte(nil), p.Data...), Len: p.Len}
		s.Drop(off)
		if want := PackBits(bits[off:]); s.Len != want.Len || !bytes.Equal(s.Data, want.Data) {
			t.Fatalf("trial %d: Drop(%d) gives %x/%d, want %x/%d", trial, off, s.Data, s.Len, want.Data, want.Len)
		}
		s.Truncate(n)
		if want := PackBits(bits[off : off+n]); s.Len != want.Len || !bytes.Equal(s.Data, want.Data) {
			t.Fatalf("trial %d: Truncate(%d) after Drop(%d) gives %x/%d, want %x/%d", trial, n, off, s.Data, s.Len, want.Data, want.Len)
		}
		// Append onto an unaligned prefix.
		cut := rng.IntN(p.Len + 1)
		u := PackBits(bits[:cut])
		u.Append(PackBits(bits[cut:]))
		if !bytes.Equal(u.Unpack(), bits) {
			t.Fatalf("trial %d: Append mismatch", trial)
		}
	}
}

// TestPackedCorrectorEquivalence is the acceptance property test: every
// built-in corrector's packed output must be bit-identical to the
// legacy bit-per-byte Process across random inputs, biases and lengths —
// including lengths not divisible by the corrector's block — and
// AppendPacked onto a non-empty, unaligned stream must append exactly that
// output.
func TestPackedCorrectorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	correctors := []Corrector{
		VonNeumann{},
		XORDecimator{Factor: 2},
		XORDecimator{Factor: 3},
		XORDecimator{Factor: 17},
		XORDecimator{Factor: 100},
		SHA256Conditioner{InputBlockBits: 256},
		SHA256Conditioner{InputBlockBits: 512},
		SHA256Conditioner{InputBlockBits: 300}, // non-byte-aligned blocks
	}
	for _, c := range correctors {
		pc, ok := c.(PackedCorrector)
		if !ok {
			t.Fatalf("%s does not implement PackedCorrector", c.Name())
		}
		for trial := 0; trial < 40; trial++ {
			n := rng.IntN(2200)
			bias := []float64{0.5, 0.1, 0.9, 0.0, 1.0}[trial%5]
			in := randomBits(rng, n, bias)
			want, err := c.Process(in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pc.AppendPacked(Packed{}, PackBits(in))
			if err != nil {
				t.Fatal(err)
			}
			if got.Len != len(want) || !bytes.Equal(got.Unpack(), want) {
				t.Fatalf("%s: trial %d (n=%d bias=%.1f): packed output %d bits differs from legacy %d bits",
					c.Name(), trial, n, bias, got.Len, len(want))
			}
			prefix := randomBits(rng, rng.IntN(20), 0.5)
			appended, err := pc.AppendPacked(PackBits(prefix), PackBits(in))
			if err != nil {
				t.Fatal(err)
			}
			if want := PackBits(append(prefix, want...)); appended.Len != want.Len || !bytes.Equal(appended.Data, want.Data) {
				t.Fatalf("%s: trial %d: AppendPacked onto %d bits differs from the prefix plus Process output",
					c.Name(), trial, len(prefix))
			}
		}
	}
}

// TestPackedCorrectorParameterErrors: packed implementations reject the same
// bad parameters as the legacy ones.
func TestPackedCorrectorParameterErrors(t *testing.T) {
	if _, err := (XORDecimator{Factor: 1}).AppendPacked(Packed{}, Packed{}); err == nil {
		t.Error("packed XOR decimator accepted factor 1")
	}
	if _, err := (SHA256Conditioner{InputBlockBits: 128}).AppendPacked(Packed{}, Packed{}); err == nil {
		t.Error("packed SHA-256 conditioner accepted a 128-bit block")
	}
}
