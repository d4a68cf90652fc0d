package core

import "math/bits"

// bitBuffer is a FIFO of bits packed 64 per uint64 word. It replaces the
// byte-per-bit queue the original TRNG used: an 8× smaller footprint for the
// same number of buffered bits, and a representation the Engine's packed-word
// ring can drain without re-encoding. The zero value is an empty buffer.
type bitBuffer struct {
	words []uint64
	// head and tail are absolute bit offsets into words: head is the first
	// unconsumed bit, tail is one past the last appended bit.
	head int
	tail int
}

// Len returns the number of buffered (unconsumed) bits.
func (b *bitBuffer) Len() int { return b.tail - b.head }

// Append adds one bit (0 or 1) at the tail. The update is branchless: the
// bits are random, so a branch on the bit's value mispredicts half the time.
func (b *bitBuffer) Append(bit byte) {
	if b.tail == len(b.words)*64 {
		b.words = append(b.words, 0)
	}
	w, s := b.tail>>6, uint(b.tail&63)
	b.words[w] = b.words[w]&^(1<<s) | uint64(bit&1)<<s
	b.tail++
}

// popBit removes and returns the bit at the head without reclaiming storage;
// bulk callers compact once when done. It panics on an empty buffer; callers
// check Len first.
func (b *bitBuffer) popBit() byte {
	bit := byte((b.words[b.head>>6] >> uint(b.head&63)) & 1)
	b.head++
	return bit
}

// PopBits removes the first n bits and returns them one per byte (values 0
// or 1). It panics if fewer than n bits are buffered.
func (b *bitBuffer) PopBits(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b.popBit()
	}
	b.compact()
	return out
}

// popChunk removes the first n bits (n <= 64) and returns them packed
// LSB-first: bit i of the result is the i-th popped bit. It panics if fewer
// than n bits are buffered; callers check Len first. Storage is not
// reclaimed; bulk callers compact once when done.
func (b *bitBuffer) popChunk(n int) uint64 {
	w, off := b.head>>6, uint(b.head&63)
	v := b.words[w] >> off
	if got := 64 - int(off); got < n {
		v |= b.words[w+1] << uint(got)
	}
	if n < 64 {
		v &= (1 << uint(n)) - 1
	}
	b.head += n
	return v
}

// PopPacked removes the first 8*len(p) bits and packs them into p, eight bits
// per output byte, most significant bit first — the same encoding
// PackBitsMSBFirst produces — without any intermediate bit-per-byte slice. It
// panics if fewer than 8*len(p) bits are buffered.
//
//drange:noalloc
func (b *bitBuffer) PopPacked(p []byte) {
	i := 0
	for ; i+8 <= len(p); i += 8 {
		w := b.popChunk(64)
		// The chunk is LSB-first in stream order; Reverse8 of each byte
		// yields the MSB-first byte encoding.
		p[i] = bits.Reverse8(byte(w))
		p[i+1] = bits.Reverse8(byte(w >> 8))
		p[i+2] = bits.Reverse8(byte(w >> 16))
		p[i+3] = bits.Reverse8(byte(w >> 24))
		p[i+4] = bits.Reverse8(byte(w >> 32))
		p[i+5] = bits.Reverse8(byte(w >> 40))
		p[i+6] = bits.Reverse8(byte(w >> 48))
		p[i+7] = bits.Reverse8(byte(w >> 56))
	}
	for ; i < len(p); i++ {
		p[i] = bits.Reverse8(byte(b.popChunk(8)))
	}
	b.compact()
}

// PopWord removes up to 64 bits and returns them packed LSB-first together
// with the number of valid bits. An empty buffer returns (0, 0).
func (b *bitBuffer) PopWord() (word uint64, n int) {
	n = min(b.Len(), 64)
	if n > 0 {
		word = b.popChunk(n)
	}
	b.compact()
	return word, n
}

// PackBitsMSBFirst packs bits (one value-0/1 byte each) into p, eight bits
// per output byte, most significant bit first. len(bits) must be 8*len(p).
// TRNG, Engine and the public facade share it so their byte encodings
// cannot diverge.
func PackBitsMSBFirst(bits []byte, p []byte) {
	for i := range p {
		var b byte
		for j := 0; j < 8; j++ {
			b = b<<1 | (bits[i*8+j] & 1)
		}
		p[i] = b
	}
}

// BEUint64 assembles a big-endian 64-bit value from buf.
func BEUint64(buf [8]byte) uint64 {
	var v uint64
	for _, b := range buf {
		v = v<<8 | uint64(b)
	}
	return v
}

// compact reclaims fully-consumed leading words and resets an empty buffer so
// long-lived buffers do not grow without bound.
func (b *bitBuffer) compact() {
	if b.head == b.tail {
		b.words = b.words[:0]
		b.head, b.tail = 0, 0
		return
	}
	if w := b.head >> 6; w > 0 {
		b.words = append(b.words[:0], b.words[w:]...)
		b.head -= w << 6
		b.tail -= w << 6
	}
}
