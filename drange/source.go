package drange

// The math/rand/v2 import below is interface-only: RandSource adapts a
// Source INTO a rand.Source so D-RaNGe entropy can back stdlib consumers.
// Entropy flows out through the adapter; no pseudo-random bit ever enters
// the entropy path.
//
//drange:entropyflow-exempt rand.Source adapter exports entropy to math/rand, none flows in

import (
	"fmt"
	"io"
	mrand "math/rand/v2"

	"repro/internal/postproc"
)

// Source is a running D-RaNGe random number source. Open returns a Source
// whether the underlying sampler is the sequential single-controller core or
// the concurrent sharded engine — WithShards is the only difference callers
// see. Every Source is safe for concurrent use; Read never returns a short
// read except on error, and Close releases the sampling resources (stopping
// harvest goroutines when sharded).
//
// Read is the fast representation: it fills the caller's buffer directly
// from the sampler's packed 64-bit words (zero steady-state allocations
// without a monitor or post-processing chain). ReadBits serves the same
// stream bit-granularly — one value-0/1 byte per bit — as an unpacking
// adapter; mixing the two drains a single well-defined bit sequence, no bit
// is dropped or duplicated at the boundary.
// With WithDRBG attached, Read (and ReadBits and Uint64) serve the DRBG
// tier — deterministic output expanded from health-screened raw entropy —
// and ReadRaw keeps serving the raw physical tier. Without WithDRBG the two
// are the same stream.
type Source interface {
	io.ReadCloser
	// ReadBits returns n random bits, one bit per returned byte (0 or 1).
	ReadBits(n int) ([]byte, error)
	// ReadRaw fills p with raw harvested bytes — the physical tier,
	// bypassing any WithDRBG expansion (health tests and post-processing
	// still apply). Without WithDRBG it is identical to Read.
	ReadRaw(p []byte) (int, error)
	// Uint64 returns a 64-bit random value.
	Uint64() (uint64, error)
	// Stats returns the per-shard and aggregate throughput/latency
	// accounting in simulated DRAM time.
	Stats() Stats
}

// randSource adapts a Source to math/rand/v2.
type randSource struct {
	src Source
}

// Uint64 implements math/rand/v2.Source. A Source only fails when its device
// simulation fails or it has been closed — programming errors, not
// transients — so the adapter panics rather than silently degrading a
// randomness stream.
func (r randSource) Uint64() uint64 {
	v, err := r.src.Uint64()
	if err != nil {
		panic(fmt.Sprintf("drange: rand.Source read failed: %v", err))
	}
	return v
}

// RandSource adapts s to a math/rand/v2 Source, so D-RaNGe can back
// rand.New for shuffles, samplers and every other stdlib consumer. The
// adapter panics if the underlying Source fails (e.g. after Close).
func RandSource(s Source) mrand.Source {
	return randSource{src: s}
}

// Corrector is one post-processing (de-biasing) stage from Section 2.2 of
// the paper, applied to a raw bitstream of one bit per byte. Correctors
// typically shrink the stream. Implementations must be deterministic and
// must not fail on an empty input; parameter validation may reject an empty
// input call with an error, which Open surfaces when the chain is attached.
type Corrector interface {
	// Name identifies the technique.
	Name() string
	// Process returns the corrected bitstream.
	Process(bits []byte) ([]byte, error)
}

// corrector adapts an internal postproc.Corrector and remembers its block
// granularity so the streaming chain can size batches that no stage
// truncates mid-block.
type corrector struct {
	inner postproc.Corrector
	block int
}

func (c corrector) Name() string                        { return c.inner.Name() }
func (c corrector) Process(bits []byte) ([]byte, error) { return c.inner.Process(bits) }

// VonNeumann returns the classic von Neumann corrector: it consumes bits in
// pairs, emits the first bit of each 01/10 pair, and discards 00/11 pairs.
func VonNeumann() Corrector {
	return corrector{inner: postproc.VonNeumann{}, block: 2}
}

// XORDecimator returns a corrector that XORs non-overlapping groups of
// factor raw bits into single output bits, reducing bias exponentially at a
// linear throughput cost. factor must be at least 2.
func XORDecimator(factor int) Corrector {
	return corrector{inner: postproc.XORDecimator{Factor: factor}, block: factor}
}

// SHA256Conditioner returns a corrector that hashes inputBlockBits-sized raw
// blocks with SHA-256 and emits the digest bits — the cryptographic
// conditioning approach of the retention-based TRNGs. inputBlockBits must be
// at least 256.
func SHA256Conditioner(inputBlockBits int) Corrector {
	return corrector{inner: postproc.SHA256Conditioner{InputBlockBits: inputBlockBits}, block: inputBlockBits}
}

// postStage is one corrector in a streaming chain plus its carry buffer:
// input bits short of the stage's block granularity wait here for the next
// batch instead of being truncated, so the streamed output equals the
// corrector applied to the whole concatenated input. The stream is carried in
// the packed representation; built-in correctors process it packed, and
// correctors of unknown provenance are served through an unpack/repack
// adapter around their bit-per-byte Process. The carry, head and out buffers
// are reused across batches, so a warmed packed stage allocates nothing.
type postStage struct {
	c Corrector
	// packed is the corrector's packed fast path (nil for custom correctors).
	packed postproc.PackedCorrector
	// block is the stage's processing granularity (0 for correctors of
	// unknown structure, which are fed batch-at-a-time).
	block int
	carry postproc.Packed
	// head holds a copy of a partially consumed carry's block-aligned
	// prefix; out holds the stage's output until the next feed.
	head, out postproc.Packed
}

// feed runs the stage over its carry plus the incoming bits, consuming the
// largest block-aligned prefix and retaining the remainder for later. The
// result is valid until the next feed.
//
//drange:noalloc amortized
func (s *postStage) feed(in postproc.Packed) (postproc.Packed, error) {
	s.carry.Append(in)
	usable := s.carry.Len
	if s.block > 1 {
		usable -= usable % s.block
	}
	if usable == 0 {
		return postproc.Packed{}, nil
	}
	// A fully consumed carry is handed over as is; a partial prefix is
	// copied and truncated so the bits past its Len stay zero, the
	// invariant postproc.Packed consumers rely on.
	prefix := s.carry
	if usable < s.carry.Len {
		s.head.Data = append(s.head.Data[:0], s.carry.Data...)
		s.head.Len = s.carry.Len
		s.head.Truncate(usable)
		prefix = s.head
	}
	var err error
	if s.packed != nil {
		s.out, err = s.packed.AppendPacked(postproc.Packed{Data: s.out.Data[:0]}, prefix)
	} else {
		var legacy []byte
		legacy, err = s.c.Process(prefix.Unpack())
		if err == nil {
			s.out = postproc.PackBits(legacy)
		}
	}
	if err != nil {
		return postproc.Packed{}, fmt.Errorf("drange: postprocess stage %s: %w", s.c.Name(), err)
	}
	s.carry.Drop(usable)
	return s.out, nil
}

// postChain streams a corrector chain over a raw bit source: raw bits are
// harvested in packed batches, flow through every stage (each carrying
// sub-block remainders across batches), and corrected bits accumulate packed
// in buf until readers drain them.
type postChain struct {
	stages []*postStage
	buf    postproc.Packed
	// rawBuf is the reusable packed harvest buffer.
	rawBuf []byte
}

// basePostBatch is the raw-bit batch harvested per round; it grows
// transiently when a heavily-discarding chain yields nothing. It is a
// multiple of 8, so packed harvests are whole bytes.
const basePostBatch = 4096

// maxPostBatch bounds batch growth when a chain yields nothing, so a chain
// that discards everything fails loudly instead of harvesting forever.
const maxPostBatch = 1 << 22

func newPostChain(chain []Corrector) (*postChain, error) {
	p := &postChain{}
	for _, c := range chain {
		// Surface parameter errors (bad decimation factor, short SHA block)
		// at open time: every built-in corrector validates its configuration
		// before looking at input bits.
		if _, err := c.Process(nil); err != nil {
			return nil, fmt.Errorf("drange: postprocess stage %s: %w", c.Name(), err)
		}
		s := &postStage{c: c}
		if a, ok := c.(corrector); ok {
			s.block = a.block
			if pc, ok := a.inner.(postproc.PackedCorrector); ok {
				s.packed = pc
			}
		} else if pc, ok := c.(postproc.PackedCorrector); ok {
			s.packed = pc
		}
		p.stages = append(p.stages, s)
	}
	return p, nil
}

// fill harvests and corrects until at least need bits are buffered. rawPacked
// fills its argument with packed raw bytes.
//
//drange:noalloc amortized
func (p *postChain) fill(need int, rawPacked func([]byte) error) error {
	batch := basePostBatch
	// sinceYield counts the raw bits harvested since the chain last produced
	// output, so the exhaustion error reports the real total the doubling
	// rounds consumed (not just the final batch size).
	sinceYield := 0
	for p.buf.Len < need {
		nb := batch / 8
		if cap(p.rawBuf) < nb {
			p.rawBuf = make([]byte, nb)
		}
		raw := p.rawBuf[:nb]
		if err := rawPacked(raw); err != nil {
			return err
		}
		sinceYield += batch
		bits := postproc.Packed{Data: raw, Len: batch}
		for _, s := range p.stages {
			var err error
			bits, err = s.feed(bits)
			if err != nil {
				return err
			}
			if bits.Len == 0 {
				break
			}
		}
		if bits.Len == 0 {
			batch *= 2
			if batch > maxPostBatch {
				return fmt.Errorf("drange: postprocess chain produced no output from %d raw bits; the chain discards everything", sinceYield)
			}
			continue
		}
		batch = basePostBatch
		sinceYield = 0
		p.buf.Append(bits)
	}
	return nil
}

// readPacked fills dst with corrected bytes, harvesting raw bits via
// rawPacked as needed.
//
//drange:noalloc
func (p *postChain) readPacked(dst []byte, rawPacked func([]byte) error) error {
	if err := p.fill(len(dst)*8, rawPacked); err != nil {
		return err
	}
	// buf always starts at bit 0, so whole bytes copy straight out.
	copy(dst, p.buf.Data[:len(dst)])
	p.buf.Drop(len(dst) * 8)
	return nil
}

// readBits returns n corrected bits, one bit per byte, harvesting raw bits
// via rawPacked as needed.
func (p *postChain) readBits(n int, rawPacked func([]byte) error) ([]byte, error) {
	if err := p.fill(n, rawPacked); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = p.buf.Bit(i)
	}
	p.buf.Drop(n)
	return out, nil
}
