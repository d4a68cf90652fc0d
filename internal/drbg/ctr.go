package drbg

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
)

// SP 800-90A §10.2.1 CTR_DRBG using AES-256 without a derivation function:
// keylen = 256 bits, blocklen = 128 bits, seedlen = keylen + blocklen.
const (
	ctrKeyLen  = 32
	ctrBlock   = aes.BlockSize
	ctrSeedLen = ctrKeyLen + ctrBlock
)

// CTR is the SP 800-90A CTR_DRBG (AES-256, no derivation function). Because
// no df is used, the entropy input must be full-entropy and exactly seedlen
// (48) bytes, which is what the drange harvest path provides: raw D-RaNGe
// bits that already passed the 90B health tests. Not safe for concurrent use.
type CTR struct {
	lim limiter
	// CTR_DRBG working state per §10.2.1.1: the AES key and the counter V.
	key [ctrSeedLen - ctrBlock]byte
	v   [ctrBlock]byte
	// block is the AES instance for the current key. CTR_DRBG_Update swaps
	// the key on every call and crypto/aes cannot re-key a cipher in place,
	// so update builds a new one with aes.NewCipher.
	block cipher.Block

	// scratch buffers so Generate/Reseed themselves stay off the heap.
	temp [ctrSeedLen]byte
	seed [ctrSeedLen]byte
}

// NewCTR instantiates a CTR_DRBG from exactly 48 bytes of full-entropy
// input and an optional personalization string of at most 48 bytes.
func NewCTR(entropy, personalization []byte, opts Options) (*CTR, error) {
	c := &CTR{lim: newLimiter(opts)}
	if err := checkSeed(entropy, ctrSeedLen, c.Algorithm()); err != nil {
		return nil, err
	}
	if len(personalization) > ctrSeedLen {
		return nil, fmt.Errorf("drbg: %s personalization string exceeds seedlen (%d > %d bytes)", c.Algorithm(), len(personalization), ctrSeedLen)
	}
	// §10.2.1.3.1: seed_material = entropy_input XOR padded personalization;
	// Key = 0^keylen, V = 0^blocklen, then update.
	copy(c.seed[:], entropy)
	for i, b := range personalization {
		c.seed[i] ^= b
	}
	var err error
	if c.block, err = aes.NewCipher(c.key[:]); err != nil {
		return nil, err
	}
	c.update(&c.seed)
	return c, nil
}

// Algorithm implements DRBG.
func (c *CTR) Algorithm() string { return "ctr-aes256" }

// SeedLen implements DRBG: seedlen = keylen + blocklen = 48 bytes.
func (c *CTR) SeedLen() int { return ctrSeedLen }

// NeedsReseed implements DRBG.
func (c *CTR) NeedsReseed() bool { return c.lim.NeedsReseed() }

// Generates implements DRBG.
func (c *CTR) Generates() int64 { return c.lim.Generates() }

// Reseeds implements DRBG.
func (c *CTR) Reseeds() int64 { return c.lim.Reseeds() }

// incV increments the counter V modulo 2^blocklen (big-endian per §10.2.1.2).
func (c *CTR) incV() {
	for i := ctrBlock - 1; i >= 0; i-- {
		c.v[i]++
		if c.v[i] != 0 {
			break
		}
	}
}

// update is CTR_DRBG_Update (§10.2.1.2): generate seedlen bytes of AES-CTR
// keystream, XOR in provided_data, and install the result as the new Key‖V.
func (c *CTR) update(provided *[ctrSeedLen]byte) {
	for off := 0; off < ctrSeedLen; off += ctrBlock {
		c.incV()
		c.block.Encrypt(c.temp[off:off+ctrBlock], c.v[:])
	}
	for i := range c.temp {
		c.temp[i] ^= provided[i]
	}
	copy(c.key[:], c.temp[:ctrKeyLen])
	copy(c.v[:], c.temp[ctrKeyLen:])
	// aes.NewCipher cannot fail for a 32-byte key (validated at instantiate).
	c.block, _ = aes.NewCipher(c.key[:])
}

// padAdditional XORs nothing — it stages additional input padded to seedlen
// into c.seed, reporting whether any was provided.
func (c *CTR) padAdditional(additional []byte) (bool, error) {
	if len(additional) > ctrSeedLen {
		return false, fmt.Errorf("drbg: %s additional input exceeds seedlen (%d > %d bytes)", c.Algorithm(), len(additional), ctrSeedLen)
	}
	clear(c.seed[:])
	copy(c.seed[:], additional)
	return len(additional) > 0, nil
}

// Generate implements DRBG per §10.2.1.5.1 (no df).
//
// Generate allocates exactly once per call without additional input (twice
// with it): the closing CTR_DRBG_Update re-keys AES, and aes.NewCipher is
// the only way the standard library offers to do that. This is the known
// allocation floor of the CTR tier, pinned by TestCTRGenerateAllocFloor;
// the ChaCha20 DRBG is the allocation-free tier.
func (c *CTR) Generate(out, additional []byte) error {
	if err := c.lim.checkGenerate(len(out)); err != nil {
		return err
	}
	withAdd, err := c.padAdditional(additional)
	if err != nil {
		return err
	}
	if withAdd {
		c.update(&c.seed)
	}
	for len(out) > 0 {
		c.incV()
		if len(out) >= ctrBlock {
			c.block.Encrypt(out[:ctrBlock], c.v[:])
			out = out[ctrBlock:]
			continue
		}
		c.block.Encrypt(c.temp[:ctrBlock], c.v[:])
		copy(out, c.temp[:ctrBlock])
		out = nil
	}
	// Backtracking resistance: update with the (padded) additional input,
	// or with zeros when none was provided.
	if !withAdd {
		clear(c.seed[:])
	}
	c.update(&c.seed)
	c.lim.didGenerate()
	return nil
}

// Reseed implements DRBG per §10.2.1.4.1 (no df): seed_material =
// entropy_input XOR padded additional input.
func (c *CTR) Reseed(entropy, additional []byte) error {
	if err := checkSeed(entropy, ctrSeedLen, c.Algorithm()); err != nil {
		return err
	}
	if _, err := c.padAdditional(additional); err != nil {
		return err
	}
	for i, b := range entropy {
		c.seed[i] ^= b
	}
	c.update(&c.seed)
	c.lim.didReseed()
	return nil
}

var _ DRBG = (*CTR)(nil)
