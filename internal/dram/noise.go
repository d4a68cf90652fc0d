package dram

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// NoiseSource supplies the per-access analog noise that makes activation
// failures non-deterministic. In real hardware this is thermal/sense-amplifier
// noise; here it is a stream of raw 64-bit words, with three implementations:
//
//   - PhysicalNoise draws from the operating system's entropy pool
//     (crypto/rand), the closest available stand-in for physical randomness.
//   - DeterministicNoise is a seeded, reproducible source used by tests and
//     benchmarks so that experiments are repeatable.
//   - DeterministicBankNoise is seeded too, with one independent stream per
//     bank, so a bank's failure outcomes depend only on its own command
//     order and concurrent multi-bank harvests stay reproducible.
//
// A word w stands for the uniform (w>>11)/2⁵³, and two uniforms make one
// standard-normal sample by Box–Muller. Failure injection decides each cell
// from the words themselves, drawing exactly the words that Box–Muller
// samples would consume (see Device.injectFailuresLocked).
//
// The interface is sealed: its unexported method hands the device a locked
// word stream, so only this package's sources implement it. Implementations
// are safe for concurrent use.
type NoiseSource interface {
	// Gaussian returns one sample from a standard normal distribution
	// (mean 0, standard deviation 1).
	Gaussian() float64

	// lockWords locks the word stream that serves bank and returns it; the
	// caller draws words with pair and releases the stream with unlock.
	lockWords(bank int) wordStream
}

// wordStream is a noise source's raw word stream, locked from lockWords
// until unlock.
type wordStream struct {
	mu    *sync.Mutex
	state *uint64        // SplitMix64 state of a seeded source
	phys  *PhysicalNoise // the OS-entropy buffer, when state is nil
}

// pair returns the stream's next two 64-bit words: every draw is a pair,
// the two uniforms of one Box–Muller sample.
//
//drange:noalloc
//drange:holds mu the stream is locked from lockWords until unlock
func (s wordStream) pair() (uint64, uint64) {
	if s.state == nil {
		return s.phys.wordLocked(), s.phys.wordLocked()
	}
	var a, b uint64
	*s.state, a = splitmix64(*s.state)
	*s.state, b = splitmix64(*s.state)
	return a, b
}

func (s wordStream) unlock() { s.mu.Unlock() }

// gaussian draws one standard-normal sample from src's stream for bank,
// taking both of its words under one lock acquisition.
func gaussian(src NoiseSource, bank int) float64 {
	s := src.lockWords(bank)
	u1, u2 := s.pair()
	s.unlock()
	return boxMuller(unitFloat(u1), unitFloat(u2))
}

// boxMuller converts two independent uniform samples in [0,1) into one
// standard-normal sample.
func boxMuller(u1, u2 float64) float64 {
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// PhysicalNoise is a NoiseSource backed by the operating system entropy pool.
// It buffers entropy to avoid a system call per sample, refilling one
// buffer in place.
type PhysicalNoise struct {
	mu  sync.Mutex
	buf [4096]byte // drange:guardedby mu
	// avail counts the unread bytes at the end of buf.
	avail int // drange:guardedby mu
}

// NewPhysicalNoise returns a NoiseSource that draws from crypto/rand.
func NewPhysicalNoise() *PhysicalNoise {
	return &PhysicalNoise{}
}

func (p *PhysicalNoise) lockWords(int) wordStream {
	p.mu.Lock()
	return wordStream{mu: &p.mu, phys: p}
}

// wordLocked returns the next buffered entropy word. Callers hold p.mu.
//
//drange:noalloc
func (p *PhysicalNoise) wordLocked() uint64 {
	if p.avail < 8 {
		p.refillLocked()
	}
	v := binary.LittleEndian.Uint64(p.buf[len(p.buf)-p.avail:])
	p.avail -= 8
	return v
}

// refillLocked refills buf from the OS entropy pool. Callers hold p.mu.
//
//drange:noalloc
func (p *PhysicalNoise) refillLocked() {
	if _, err := rand.Read(p.buf[:]); err != nil {
		// crypto/rand failing is unrecoverable for a TRNG; surface it
		// loudly rather than silently degrade to predictable output.
		panic(fmt.Sprintf("dram: reading OS entropy failed: %v", err))
	}
	p.avail = len(p.buf)
}

// Gaussian implements NoiseSource.
func (p *PhysicalNoise) Gaussian() float64 {
	return gaussian(p, 0)
}

// DeterministicNoise is a seeded, reproducible NoiseSource based on
// SplitMix64. It is intended for tests, characterization reproducibility and
// benchmarks; it is NOT suitable for generating keys.
type DeterministicNoise struct {
	mu    sync.Mutex
	state uint64 // drange:guardedby mu
}

// NewDeterministicNoise returns a reproducible noise source seeded with seed.
func NewDeterministicNoise(seed uint64) *DeterministicNoise {
	return &DeterministicNoise{state: seed ^ 0xd1b54a32d192ed03}
}

// lockWords hands out the single stream whatever the bank.
func (d *DeterministicNoise) lockWords(int) wordStream {
	d.mu.Lock()
	return wordStream{mu: &d.mu, state: &d.state}
}

// Gaussian implements NoiseSource.
func (d *DeterministicNoise) Gaussian() float64 {
	return gaussian(d, 0)
}

// DeterministicBankNoise is a seeded NoiseSource with an independent
// reproducible SplitMix64 stream per bank. It models per-bank sense
// amplifiers with independent analog noise: failure injection draws from the
// stream of the bank being accessed, so goroutines driving disjoint banks
// cannot perturb each other's draws however the scheduler interleaves them.
// Like DeterministicNoise it is for tests, characterization and benchmarks
// only — never for generating keys.
type DeterministicBankNoise struct {
	mu   sync.Mutex
	seed uint64
	// streams holds the per-bank stream states indexed by bank+1 (slot 0 is
	// the bankless stream), lazily initialised; init marks live slots. A
	// dense slice keeps the per-draw cost to an uncontended lock and an
	// index, which matters in the failure-injection hot path.
	streams []uint64 // drange:guardedby mu
	init    []bool   // drange:guardedby mu
}

// NewDeterministicBankNoise returns a reproducible per-bank noise source
// seeded with seed.
func NewDeterministicBankNoise(seed uint64) *DeterministicBankNoise {
	return &DeterministicBankNoise{seed: seed}
}

// stateLocked returns the stream slot for bank, deriving its seed on first
// use. Callers hold d.mu.
func (d *DeterministicBankNoise) stateLocked(bank int) *uint64 {
	slot := bank + 1
	if slot >= len(d.streams) {
		streams := make([]uint64, slot+1)
		copy(streams, d.streams)
		initd := make([]bool, slot+1)
		copy(initd, d.init)
		d.streams, d.init = streams, initd
	}
	if !d.init[slot] {
		// Derive the stream seed from (seed, bank) so streams are
		// decorrelated; run one splitmix round over the mix for diffusion.
		s, _ := splitmix64(d.seed ^ (uint64(bank)+1)*0x9e3779b97f4a7c15)
		d.streams[slot] = s
		d.init[slot] = true
	}
	return &d.streams[slot]
}

// lockWords hands out bank's own stream. The slot pointer stays valid while
// the lock is held: only stateLocked grows streams.
func (d *DeterministicBankNoise) lockWords(bank int) wordStream {
	d.mu.Lock()
	return wordStream{mu: &d.mu, state: d.stateLocked(bank)}
}

// GaussianFor returns one standard-normal sample from the stream dedicated
// to bank.
func (d *DeterministicBankNoise) GaussianFor(bank int) float64 {
	return gaussian(d, bank)
}

// Gaussian implements NoiseSource; draws not attributable to a bank (e.g. the
// retention baseline's block perturbation) come from a dedicated stream.
func (d *DeterministicBankNoise) Gaussian() float64 {
	return d.GaussianFor(-1)
}

var (
	_ NoiseSource = (*PhysicalNoise)(nil)
	_ NoiseSource = (*DeterministicNoise)(nil)
	_ NoiseSource = (*DeterministicBankNoise)(nil)
)
