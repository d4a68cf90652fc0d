package core

import (
	"bytes"
	"testing"
)

func TestBitBufferRoundTrip(t *testing.T) {
	var b bitBuffer
	var want []byte
	for i := 0; i < 300; i++ {
		bit := byte((i * 7 / 3) & 1)
		b.Append(bit)
		want = append(want, bit)
	}
	if b.Len() != 300 {
		t.Fatalf("Len = %d, want 300", b.Len())
	}
	got := b.PopBits(300)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bit %d = %d, want %d", i, got[i], want[i])
		}
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", b.Len())
	}
}

func TestBitBufferPopWordPacksLSBFirst(t *testing.T) {
	var b bitBuffer
	// 64 bits: alternating 1,0,1,0,... => 0x5555... pattern.
	for i := 0; i < 64; i++ {
		b.Append(byte((i + 1) & 1))
	}
	word, n := b.PopWord()
	if n != 64 {
		t.Fatalf("PopWord n = %d, want 64", n)
	}
	if word != 0x5555555555555555 {
		t.Fatalf("PopWord = %#x, want 0x5555555555555555", word)
	}
	// Partial word.
	b.Append(1)
	b.Append(1)
	b.Append(0)
	word, n = b.PopWord()
	if n != 3 || word != 0b011 {
		t.Fatalf("PopWord = (%#b, %d), want (0b11, 3)", word, n)
	}
	if word, n := b.PopWord(); n != 0 || word != 0 {
		t.Fatalf("PopWord on empty buffer = (%d, %d), want (0, 0)", word, n)
	}

	// Against a bit-by-bit reference: heads off a word boundary (after
	// PopBits(3) and PopBits(61)) and tails shorter than a word.
	state := uint64(7)
	for _, skip := range []int{0, 3, 61} {
		for _, total := range []int{skip + 1, skip + 5, skip + 64, skip + 64 + 63, skip + 200} {
			var b bitBuffer
			var ref []byte
			for i := 0; i < total; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				bit := byte(state >> 63)
				b.Append(bit)
				ref = append(ref, bit)
			}
			b.PopBits(skip)
			ref = ref[skip:]
			for len(ref) > 0 {
				want, wantN := uint64(0), min(len(ref), 64)
				for i, bit := range ref[:wantN] {
					want |= uint64(bit) << uint(i)
				}
				word, n := b.PopWord()
				if word != want || n != wantN {
					t.Fatalf("skip %d, total %d: PopWord = (%#x, %d), want (%#x, %d)", skip, total, word, n, want, wantN)
				}
				ref = ref[wantN:]
			}
			if b.Len() != 0 {
				t.Fatalf("skip %d, total %d: %d bits left after draining", skip, total, b.Len())
			}
		}
	}
}

func TestBitBufferInterleavedAppendPop(t *testing.T) {
	var b bitBuffer
	next, popped := 0, 0
	bitAt := func(i int) byte { return byte((i*i + i/5) & 1) }
	for round := 0; round < 50; round++ {
		for i := 0; i < 37; i++ {
			b.Append(bitAt(next))
			next++
		}
		for _, bit := range b.PopBits(29) {
			if bit != bitAt(popped) {
				t.Fatalf("bit %d corrupted across interleaved append/pop", popped)
			}
			popped++
		}
	}
	if b.Len() != next-popped {
		t.Fatalf("Len = %d, want %d", b.Len(), next-popped)
	}
	// The buffer must not retain consumed words: with ~8 words of live bits
	// the backing array should stay small.
	if len(b.words) > 32 {
		t.Errorf("buffer retains %d words for %d live bits; compaction failed", len(b.words), b.Len())
	}
}

// TestPopPackedMatchesPopBits: PopPacked must produce the PackBitsMSBFirst
// encoding of the same bits PopBits would return, across random chunkings
// and non-byte-aligned interleavings.
func TestPopPackedMatchesPopBits(t *testing.T) {
	state := uint64(42)
	nextBit := func() byte {
		state = state*6364136223846793005 + 1442695040888963407
		return byte(state >> 63)
	}
	var a, b bitBuffer
	var stream []byte
	for i := 0; i < 10000; i++ {
		bit := nextBit()
		a.Append(bit)
		b.Append(bit)
		stream = append(stream, bit)
	}
	// Interleave byte-aligned packed pops with odd-length bit pops on buffer
	// a; buffer b serves as the bit-per-byte reference.
	sizes := []int{8, 3, 64, 1, 16, 7, 120, 33}
	off := 0
	for i := 0; a.Len() > 200; i++ {
		n := sizes[i%len(sizes)]
		if n%8 == 0 {
			packed := make([]byte, n/8)
			a.PopPacked(packed)
			want := make([]byte, n/8)
			PackBitsMSBFirst(stream[off:off+n], want)
			if !bytes.Equal(packed, want) {
				t.Fatalf("PopPacked at offset %d: got %x want %x", off, packed, want)
			}
			b.PopBits(n)
		} else {
			got := a.PopBits(n)
			if !bytes.Equal(got, stream[off:off+n]) {
				t.Fatalf("PopBits at offset %d diverged", off)
			}
			b.PopBits(n)
		}
		off += n
	}
}
