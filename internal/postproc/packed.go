package postproc

import (
	"crypto/sha256"
	"fmt"
	"math/bits"
)

// Packed is an MSB-first packed bitstream: bit i of the stream lives in
// Data[i/8] at position 7-i%8 — the same byte encoding the generator's Read
// path serves. Len is the number of valid bits; bits of Data past Len are
// zero (every constructor below maintains the invariant, which lets appends
// OR bytes together without masking).
//
// Packed is the native currency of the packed post-processing path: raw
// harvested bytes flow through PackedCorrector stages without ever being
// expanded to the legacy one-bit-per-byte representation.
type Packed struct {
	Data []byte
	Len  int
}

// PackedCorrector is a Corrector with a packed fast path. Process and
// AppendPacked must implement the same transformation bit for bit; the
// equivalence is pinned by property tests. All built-in correctors implement
// it; correctors of unknown provenance are fed through Process with an
// unpack/repack adapter.
type PackedCorrector interface {
	Corrector
	// AppendPacked appends the corrected bitstream of in to dst and returns
	// the extended stream. A streaming caller passes its previous output cut
	// back to zero length, so once that buffer has grown to its steady-state
	// size the corrector allocates nothing.
	AppendPacked(dst, in Packed) (Packed, error)
}

// PackBits packs a bit-per-byte stream (values 0 or 1).
func PackBits(bitstream []byte) Packed {
	p := Packed{Data: make([]byte, 0, (len(bitstream)+7)/8)}
	for _, b := range bitstream {
		p.AppendBit(b & 1)
	}
	return p
}

// Unpack expands to the legacy one-bit-per-byte representation.
func (p Packed) Unpack() []byte {
	out := make([]byte, p.Len)
	for i := range out {
		out[i] = p.Bit(i)
	}
	return out
}

// Bit returns bit i (0 or 1).
func (p Packed) Bit(i int) byte {
	return (p.Data[i>>3] >> uint(7-i&7)) & 1
}

// Chunk returns n bits (n <= 64) starting at bit off, with the first bit of
// the stream as the most significant bit of the n-bit result — the value the
// bits spell read in order.
func (p Packed) Chunk(off, n int) uint64 {
	var v uint64
	for n > 0 {
		b := p.Data[off>>3]
		avail := 8 - off&7
		take := n
		if take > avail {
			take = avail
		}
		v = v<<uint(take) | uint64(b>>uint(avail-take))&(1<<uint(take)-1)
		off += take
		n -= take
	}
	return v
}

// Drop discards the first n bits (0 <= n <= Len) in place and re-aligns the
// rest to bit 0, so a stream drained from the front keeps its buffer.
//
//drange:noalloc
func (p *Packed) Drop(n int) {
	rest := p.Len - n
	k, s := n>>3, uint(n&7)
	nb := (rest + 7) >> 3
	if s == 0 {
		copy(p.Data, p.Data[k:k+nb])
	} else {
		// Byte j gathers source bits from bytes j+k and j+k+1, both at or
		// after j, so the forward pass never reads a byte it has rewritten.
		// Bits shifted in from past the old Len are zero, which keeps the
		// invariant.
		for j := 0; j < nb; j++ {
			b := p.Data[j+k] << s
			if j+k+1 < len(p.Data) {
				b |= p.Data[j+k+1] >> (8 - s)
			}
			p.Data[j] = b
		}
	}
	p.Data = p.Data[:nb]
	p.Len = rest
}

// Truncate keeps only the first n bits (0 <= n <= Len), zeroing the bits of
// the last byte past the new Len.
//
//drange:noalloc
func (p *Packed) Truncate(n int) {
	p.Data = p.Data[:(n+7)>>3]
	if r := n & 7; r != 0 {
		p.Data[n>>3] &= 0xFF << uint(8-r)
	}
	p.Len = n
}

// AppendBit appends one bit (0 or 1).
func (p *Packed) AppendBit(b byte) {
	if p.Len&7 == 0 {
		p.Data = append(p.Data, 0)
	}
	p.Data[p.Len>>3] |= (b & 1) << uint(7-p.Len&7)
	p.Len++
}

// AppendChunk appends the low n bits of v (n <= 64), most significant first —
// the inverse of Chunk.
func (p *Packed) AppendChunk(v uint64, n int) {
	for n > 0 {
		if p.Len&7 == 0 {
			p.Data = append(p.Data, 0)
		}
		free := 8 - p.Len&7
		take := n
		if take > free {
			take = free
		}
		chunk := byte(v>>uint(n-take)) & (1<<uint(take) - 1)
		p.Data[p.Len>>3] |= chunk << uint(free-take)
		p.Len += take
		n -= take
	}
}

// Append appends all of q's bits.
func (p *Packed) Append(q Packed) {
	if p.Len&7 == 0 {
		// Byte-aligned bulk append; q's invariant zeroes past Len make the
		// trailing partial byte safe to copy as-is.
		p.Data = append(p.Data[:p.Len>>3], q.Data[:(q.Len+7)>>3]...)
		p.Len += q.Len
		return
	}
	for off := 0; off < q.Len; off += 64 {
		n := q.Len - off
		if n > 64 {
			n = 64
		}
		p.AppendChunk(q.Chunk(off, n), n)
	}
}

// vnEmit/vnCount tabulate the von Neumann corrector over one byte (four
// aligned bit pairs): vnEmit[b] holds the emitted bits (first emitted bit
// most significant) and vnCount[b] how many there are.
var (
	vnEmit  [256]byte
	vnCount [256]uint8
)

func init() {
	for b := 0; b < 256; b++ {
		var out byte
		n := 0
		for pair := 0; pair < 4; pair++ {
			a := byte(b>>uint(7-2*pair)) & 1
			c := byte(b>>uint(6-2*pair)) & 1
			if a != c {
				out = out<<1 | a
				n++
			}
		}
		vnEmit[b] = out
		vnCount[b] = uint8(n)
	}
}

// ProcessPacked returns the von Neumann-corrected bitstream of in, in a new
// buffer sized for the corrector's expected yield of one bit in four.
func (v VonNeumann) ProcessPacked(in Packed) (Packed, error) {
	return v.AppendPacked(Packed{Data: make([]byte, 0, (in.Len/4+7)/8)}, in)
}

// AppendPacked implements PackedCorrector: the von Neumann corrector over a
// packed stream via table-driven pairwise bit extraction, one input byte
// (four pairs) at a time.
//
//drange:noalloc amortized
func (VonNeumann) AppendPacked(out, in Packed) (Packed, error) {
	pairsBits := in.Len &^ 1 // Process ignores a trailing odd bit
	i := 0
	for ; i+8 <= pairsBits; i += 8 {
		b := in.Data[i>>3]
		if n := int(vnCount[b]); n > 0 {
			out.AppendChunk(uint64(vnEmit[b]), n)
		}
	}
	for ; i < pairsBits; i += 2 {
		a, c := in.Bit(i), in.Bit(i+1)
		if a != c {
			out.AppendBit(a)
		}
	}
	return out, nil
}

// AppendPacked implements PackedCorrector: XOR decimation as parity folds
// over packed chunks.
//
//drange:noalloc amortized
func (x XORDecimator) AppendPacked(out, in Packed) (Packed, error) {
	if x.Factor < 2 {
		return Packed{}, fmt.Errorf("postproc: XOR decimation factor must be at least 2, got %d", x.Factor)
	}
	for off := 0; off+x.Factor <= in.Len; off += x.Factor {
		ones := 0
		for j := 0; j < x.Factor; j += 64 {
			n := x.Factor - j
			if n > 64 {
				n = 64
			}
			ones += bits.OnesCount64(in.Chunk(off+j, n))
		}
		out.AppendBit(byte(ones & 1))
	}
	return out, nil
}

// AppendPacked implements PackedCorrector: SHA-256 conditioning hashing the
// packed block bytes directly — zero re-encoding when blocks are byte-aligned.
//
//drange:noalloc amortized
func (s SHA256Conditioner) AppendPacked(out, in Packed) (Packed, error) {
	if s.InputBlockBits < 256 {
		return Packed{}, fmt.Errorf("postproc: SHA-256 input block must be at least 256 bits, got %d", s.InputBlockBits)
	}
	blocks := in.Len / s.InputBlockBits
	var scratch []byte
	for i := 0; i < blocks; i++ {
		off := i * s.InputBlockBits
		var digest [sha256.Size]byte
		if off&7 == 0 && s.InputBlockBits&7 == 0 {
			digest = sha256.Sum256(in.Data[off>>3 : (off+s.InputBlockBits)>>3])
		} else {
			// Misaligned block: repack it the way the legacy corrector does —
			// full bytes MSB-first, a trailing partial byte right-aligned.
			scratch = scratch[:0]
			j := 0
			for ; j+8 <= s.InputBlockBits; j += 8 {
				scratch = append(scratch, byte(in.Chunk(off+j, 8)))
			}
			if r := s.InputBlockBits - j; r > 0 {
				scratch = append(scratch, byte(in.Chunk(off+j, r)))
			}
			digest = sha256.Sum256(scratch)
		}
		out.Append(Packed{Data: digest[:], Len: 8 * sha256.Size})
	}
	return out, nil
}

var (
	_ PackedCorrector = VonNeumann{}
	_ PackedCorrector = XORDecimator{}
	_ PackedCorrector = SHA256Conditioner{}
)
