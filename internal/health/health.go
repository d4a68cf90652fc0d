// Package health implements the SP 800-90B style online health tests that
// guard a D-RaNGe bitstream in the hot path: the Repetition Count Test (RCT)
// and the Adaptive Proportion Test (APT) over configurable symbol widths,
// plus a windowed bias monitor and, when the caller supplies a temperature
// probe, a temperature-drift check at every bias window. The paper validates
// D-RaNGe's output quality offline with the NIST battery and notes that RNG
// cells drift with temperature and aging (Section 5.3); these tests are the
// continuous counterpart — they run over every harvested bit and catch a
// degraded device from the bitstream itself, or from its drift off the
// temperature it was characterized at, before biased output reaches a caller.
//
// A Monitor is not safe for concurrent use; the drange facade drives one
// monitor per source (or per pool member) under the source's lock.
package health

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/nist"
	"repro/internal/postproc"
)

// defaultAlphaExp is -log2 of the false-positive probability the default
// cutoffs are derived for. SP 800-90B recommends choosing alpha in
// [2^-40, 2^-20]; 2^-30 keeps healthy sources tripping less than once per
// ~10^9 windows while a stuck or heavily biased device trips within one.
const defaultAlphaExp = 30

// MaxSymbolBits bounds the symbol width of the RCT/APT tests. Wider symbols
// see longer-range structure but need proportionally longer windows.
const MaxSymbolBits = 16

// MaxTempDriftC is the temperature-drift bound in °C: a probe reading further
// than this from the monitor's baseline trips TestTemp. The paper's Section
// 5.3 shows RNG-cell failure probabilities moving with temperature, so cells
// selected at one operating point are not trusted 10 °C away from it.
const MaxTempDriftC = 10.0

// DefaultRCTCutoff returns the SP 800-90B §4.4.1 repetition-count cutoff for
// a full-entropy source emitting symbolBits-bit symbols:
// C = 1 + ceil(-log2(alpha) / H) with alpha = 2^-30 and H = symbolBits.
func DefaultRCTCutoff(symbolBits int) int {
	if symbolBits < 1 {
		symbolBits = 1
	}
	return 1 + (defaultAlphaExp+symbolBits-1)/symbolBits
}

// DefaultAPTWindow returns the SP 800-90B §4.4.2 window size: 1024 symbols
// for binary sources, 512 otherwise.
func DefaultAPTWindow(symbolBits int) int {
	if symbolBits <= 1 {
		return 1024
	}
	return 512
}

// DefaultAPTCutoff returns the smallest count C such that a full-entropy
// source emitting symbolBits-bit symbols sees C or more copies of any fixed
// symbol in a window-symbol window with probability at most 2^-30: the
// critical binomial value SP 800-90B §4.4.2 prescribes, computed exactly in
// log space.
func DefaultAPTCutoff(window, symbolBits int) int {
	if symbolBits < 1 {
		symbolBits = 1
	}
	if window < 1 {
		window = DefaultAPTWindow(symbolBits)
	}
	logP := -float64(symbolBits) * math.Ln2 // log of the per-symbol hit probability
	logQ := math.Log1p(-math.Exp(logP))     // log(1 - p)
	logAlpha := -defaultAlphaExp * math.Ln2 // log(2^-30)
	lgamma := func(x float64) float64 { v, _ := math.Lgamma(x); return v }
	n := float64(window)
	// Walk the upper tail downwards, accumulating P[X >= c] until it first
	// exceeds alpha; the cutoff is one above that point.
	tail := math.Inf(-1) // log of the accumulated tail probability
	for c := window; c >= 0; c-- {
		k := float64(c)
		logTerm := lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) + k*logP + (n-k)*logQ
		// tail = log(exp(tail) + exp(logTerm)), numerically stable.
		if logTerm > tail {
			tail, logTerm = logTerm, tail
		}
		tail += math.Log1p(math.Exp(logTerm - tail))
		if tail > logAlpha {
			if c+1 > window {
				return window
			}
			return c + 1
		}
	}
	return 1
}

// Config parameterizes a Monitor. The zero value of every field selects the
// SP 800-90B style default documented on the field.
type Config struct {
	// SymbolBits is the width of the symbols the RCT and APT operate on, in
	// [1, MaxSymbolBits]. Harvested bits are packed MSB-first into symbols.
	// Width 1 (the default) watches the raw bitstream; wider symbols catch
	// periodic structure single bits cannot (e.g. a 0101... stutter trips the
	// RCT at width 4 but never at width 1).
	SymbolBits int
	// RCTCutoff is the repetition-count cutoff: RCTCutoff consecutive
	// identical symbols trip the test. 0 selects DefaultRCTCutoff.
	RCTCutoff int
	// APTWindow and APTCutoff parameterize the adaptive proportion test: at
	// each window start the first symbol is taken as reference, and APTCutoff
	// or more occurrences within APTWindow symbols trip the test. 0 selects
	// DefaultAPTWindow / DefaultAPTCutoff.
	APTWindow int
	APTCutoff int
	// BiasWindowBits is the bias monitor's window; at each full window the
	// ones-fraction of the window is compared against one half. 0 selects
	// 4096.
	BiasWindowBits int
	// MaxBiasDelta trips the bias monitor when |ones-fraction − 0.5| over a
	// window exceeds it. 0 selects 0.1; negative disables the bias monitor.
	MaxBiasDelta float64
	// Temperature probes the monitored device's temperature in °C. New reads
	// it once for the baseline (Rebaseline re-takes it); every completed
	// bias window reads it again after the bias check, and a reading more
	// than MaxTempDriftC from the baseline trips TestTemp. nil disables the
	// temperature check.
	Temperature func() float64
}

// withDefaults resolves every zero field to its documented default.
func (c Config) withDefaults() Config {
	if c.SymbolBits == 0 {
		c.SymbolBits = 1
	}
	if c.RCTCutoff == 0 {
		c.RCTCutoff = DefaultRCTCutoff(c.SymbolBits)
	}
	if c.APTWindow == 0 {
		c.APTWindow = DefaultAPTWindow(c.SymbolBits)
	}
	if c.APTCutoff == 0 {
		c.APTCutoff = DefaultAPTCutoff(c.APTWindow, c.SymbolBits)
	}
	if c.BiasWindowBits == 0 {
		c.BiasWindowBits = 4096
	}
	if c.MaxBiasDelta == 0 {
		c.MaxBiasDelta = 0.1
	}
	return c
}

// validate rejects unusable parameter combinations after defaulting.
func (c Config) validate() error {
	if c.SymbolBits < 1 || c.SymbolBits > MaxSymbolBits {
		return fmt.Errorf("health: symbol width %d outside [1,%d]", c.SymbolBits, MaxSymbolBits)
	}
	if c.RCTCutoff < 2 {
		return fmt.Errorf("health: RCT cutoff %d must be at least 2", c.RCTCutoff)
	}
	if c.APTWindow < 2 {
		return fmt.Errorf("health: APT window %d must be at least 2", c.APTWindow)
	}
	if c.APTCutoff < 2 || c.APTCutoff > c.APTWindow {
		return fmt.Errorf("health: APT cutoff %d outside [2,%d]", c.APTCutoff, c.APTWindow)
	}
	if c.BiasWindowBits < 2 {
		return fmt.Errorf("health: bias window %d bits must be at least 2", c.BiasWindowBits)
	}
	return nil
}

// Test names one of the continuous health tests.
type Test string

const (
	// TestRCT is the repetition count test (SP 800-90B §4.4.1).
	TestRCT Test = "rct"
	// TestAPT is the adaptive proportion test (SP 800-90B §4.4.2).
	TestAPT Test = "apt"
	// TestBias is the windowed bias monitor.
	TestBias Test = "bias"
	// TestTemp is the temperature-drift check run at each bias window.
	TestTemp Test = "temp"
	// TestStartup is the startup self-test (RCT/APT plus a mini NIST battery
	// over the first bits of a source).
	TestStartup Test = "startup"
)

// Violation reports one health-test trip.
type Violation struct {
	// Test is the tripped test.
	Test Test
	// Detail is a human-readable description of the trip.
	Detail string
}

// Counters is a snapshot of a Monitor's accounting.
type Counters struct {
	// BitsTested counts bits ingested; SymbolsTested counts the packed
	// symbols the RCT/APT saw.
	BitsTested    int64
	SymbolsTested int64
	// RCTTrips, APTTrips, BiasTrips and TempTrips count trips per test.
	RCTTrips  int64
	APTTrips  int64
	BiasTrips int64
	TempTrips int64
	// LongestRun is the longest run of identical symbols observed (capped at
	// the trip point: a tripped run resets).
	LongestRun int64
	// BiasDelta is |ones-fraction − 0.5| over the last completed bias window.
	BiasDelta float64
	// CleanWindows counts bias windows that completed without a violation —
	// the windows credited to the sink.
	CleanWindows int64
	// LastViolation describes the most recent trip ("" when none).
	LastViolation string
}

// Trips returns the total trip count across all tests.
func (c Counters) Trips() int64 { return c.RCTTrips + c.APTTrips + c.BiasTrips + c.TempTrips }

// CreditSink receives entropy credit: CreditBits(n) is called with the size
// of every bias window that completes without a violation, i.e. n raw bits
// that passed the continuous tests end to end. Implementations must be safe
// for concurrent use with their own readers (the monitor itself calls from
// its single ingest thread). The drbg package's Ledger is the canonical
// implementation.
type CreditSink interface {
	CreditBits(n int64)
}

// Monitor runs the continuous health tests over a bitstream fed to Ingest in
// arbitrary batch sizes. State carries across batches, so the tests behave
// identically however the stream is chunked.
type Monitor struct {
	cfg Config

	// symbol packing: cur accumulates curBits MSB-first bits.
	cur     uint64
	curBits int

	// RCT state: run counts consecutive occurrences of last.
	last     uint64
	haveLast bool
	run      int

	// APT state: ref is the window's reference symbol, refCount its
	// occurrences, seen the symbols consumed from the current window.
	ref      uint64
	refCount int
	seen     int

	// bias window state.
	winOnes int64
	winBits int64

	// baseTempC is the temperature baseline of the drift check.
	baseTempC float64

	// sink, when set, is credited with every clean bias window.
	sink CreditSink

	counters Counters
}

// New returns a Monitor for the configuration, after defaulting zero fields.
func New(cfg Config) (*Monitor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Monitor{cfg: cfg}
	m.Rebaseline()
	return m, nil
}

// Rebaseline re-takes the temperature baseline from the probe, for a device
// whose cells were re-characterized at its current operating point. It does
// nothing without a probe.
func (m *Monitor) Rebaseline() {
	if m.cfg.Temperature != nil {
		m.baseTempC = m.cfg.Temperature()
	}
}

// Config returns the monitor's fully resolved configuration.
func (m *Monitor) Config() Config { return m.cfg }

// Counters returns a snapshot of the monitor's accounting.
func (m *Monitor) Counters() Counters { return m.counters }

// SetCreditSink registers s to be credited with the bits of every bias
// window that completes cleanly from now on (nil unregisters). Credit is
// granted in whole-window quanta: bits in a window that trips, or discarded
// partially accumulated by Reset, earn nothing.
func (m *Monitor) SetCreditSink(s CreditSink) { m.sink = s }

// Reset clears every window, run and partially packed symbol — the "discard
// the dirty window and start clean" step of a blocking policy. Counters and
// the temperature baseline are preserved.
func (m *Monitor) Reset() {
	m.cur, m.curBits = 0, 0
	m.haveLast, m.run = false, 0
	m.refCount, m.seen = 0, 0
	m.winOnes, m.winBits = 0, 0
}

// Ingest feeds bits (one bit per byte, values 0 or 1) through the tests. It
// returns the first violation and leaves the remaining bits of the batch
// unprocessed — under every policy the caller discards the batch (or the
// whole source) on a trip, so the tail would only be dropped again. The
// tripped test's state is reset so a continuing caller re-accumulates from
// scratch; counters record the trip either way.
func (m *Monitor) Ingest(bits []byte) *Violation {
	for _, b := range bits {
		bit := uint64(0)
		if b != 0 {
			bit = 1
		}
		if v := m.ingestBit(bit); v != nil {
			return v
		}
	}
	return nil
}

// ingestBit advances every test by one raw bit, recording and returning the
// first violation.
func (m *Monitor) ingestBit(bit uint64) *Violation {
	m.counters.BitsTested++
	// Bias monitor runs on raw bits, whatever the symbol width.
	m.winOnes += int64(bit)
	m.winBits++
	if m.winBits >= int64(m.cfg.BiasWindowBits) {
		if v := m.biasWindowDone(); v != nil {
			m.recordTrip(v)
			return v
		}
	}
	// Pack MSB-first into the configured symbol width.
	m.cur = m.cur<<1 | bit
	m.curBits++
	if m.curBits < m.cfg.SymbolBits {
		return nil
	}
	sym := m.cur
	m.cur, m.curBits = 0, 0
	if v := m.ingestSymbol(sym); v != nil {
		m.recordTrip(v)
		return v
	}
	return nil
}

// IngestPacked feeds nbits bits packed MSB-first in p (bit i at
// p[i/8]>>(7-i%8)) through the tests — the packed-word counterpart of Ingest,
// with identical trip behaviour and counters for any chunking of the same
// stream. For 1-bit symbols (the default) it advances the bias and adaptive
// proportion windows by popcount and the repetition count test by run-length
// scanning, falling back to bit-at-a-time processing only for chunks that
// approach a window boundary or could trip. Wider symbol widths replay every
// chunk bit by bit — no word-level shortcut, the win over Ingest is only
// that the stream never materialises as a bit-per-byte slice.
//
//drange:noalloc
func (m *Monitor) IngestPacked(p []byte, nbits int) *Violation {
	stream := postproc.Packed{Data: p, Len: nbits}
	off := 0
	for off < nbits {
		n := nbits - off
		if n > 64 {
			n = 64
		}
		// Load the next chunk with the first stream bit at the most
		// significant position (chunks after the first are byte-aligned).
		v := stream.Chunk(off, n)
		if m.cfg.SymbolBits == 1 && m.chunkIsQuiet(v, n) {
			m.applyQuietChunk(v, n)
			off += n
			continue
		}
		// A window boundary, a potential trip, or a wide-symbol
		// configuration: replay the chunk bit by bit (first bit at v's MSB).
		for i := n - 1; i >= 0; i-- {
			if viol := m.ingestBit((v >> uint(i)) & 1); viol != nil {
				return viol
			}
		}
		off += n
	}
	return nil
}

// chunkIsQuiet reports whether an n-bit chunk (first bit most significant)
// can be applied to the 1-bit-symbol tests in bulk: no bias or APT window
// completes inside it, the APT cutoff cannot be reached, and no symbol run —
// including the carried-in run — can reach the RCT cutoff. Quiet chunks
// advance every test with word-level operations; loud ones replay bit by bit.
func (m *Monitor) chunkIsQuiet(v uint64, n int) bool {
	if m.winBits+int64(n) >= int64(m.cfg.BiasWindowBits) {
		return false
	}
	if m.seen+n >= m.cfg.APTWindow {
		return false
	}
	ones := bits.OnesCount64(v)
	ref := m.ref
	refCount := m.refCount
	if m.seen == 0 {
		// The window restarts inside this chunk: its first bit becomes the
		// reference symbol.
		ref = (v >> uint(n-1)) & 1
		refCount = 0
	}
	matches := ones
	if ref == 0 {
		matches = n - ones
	}
	if refCount+matches >= m.cfg.APTCutoff {
		return false
	}
	run0, run1, lead := runStats(v, n)
	carried := lead
	first := (v >> uint(n-1)) & 1
	if m.haveLast && m.last == first {
		carried += m.run
	}
	maxRun := carried
	if run0 > maxRun {
		maxRun = run0
	}
	if run1 > maxRun {
		maxRun = run1
	}
	return maxRun < m.cfg.RCTCutoff
}

// applyQuietChunk advances the 1-bit-symbol tests over a chunk that
// chunkIsQuiet accepted, without per-bit work.
func (m *Monitor) applyQuietChunk(v uint64, n int) {
	ones := int64(bits.OnesCount64(v))
	m.counters.BitsTested += int64(n)
	m.counters.SymbolsTested += int64(n)
	m.winOnes += ones
	m.winBits += int64(n)

	// RCT bookkeeping: fold the carried run into the leading run, track the
	// longest run observed, and carry the trailing run out.
	run0, run1, lead := runStats(v, n)
	first := (v >> uint(n-1)) & 1
	last := v & 1
	carried := lead
	if m.haveLast && m.last == first {
		carried += m.run
	}
	for _, r := range [3]int{carried, run0, run1} {
		if int64(r) > m.counters.LongestRun {
			m.counters.LongestRun = int64(r)
		}
	}
	if lead == n {
		// Single-symbol chunk: the whole carried run continues.
		m.run = carried
	} else if last == 1 {
		m.run = bits.TrailingZeros64(^v)
	} else {
		m.run = bits.TrailingZeros64(v | 1<<uint(n))
	}
	m.last, m.haveLast = last, true

	// APT bookkeeping (no window completes inside a quiet chunk).
	if m.seen == 0 {
		m.ref, m.refCount = first, 0
	}
	m.seen += n
	matches := int(ones)
	if m.ref == 0 {
		matches = n - int(ones)
	}
	m.refCount += matches
}

// runStats returns the longest run of zeros and of ones within the low-n-bit
// window of v (first stream bit at bit n-1), plus the length of the leading
// (first-bit) run.
func runStats(v uint64, n int) (run0, run1, lead int) {
	// Shift the window to the top of the word so leading-zero counts line up
	// with stream order; mask the vacated low bits out of the zero runs.
	top := v << uint(64-n)
	mask := ^uint64(0) << uint(64-n)
	run1 = longestOnes(top)
	run0 = longestOnes(^top & mask)
	if first := (v >> uint(n-1)) & 1; first == 1 {
		lead = bits.LeadingZeros64(^top)
	} else {
		lead = bits.LeadingZeros64(top)
	}
	if lead > n {
		lead = n
	}
	return run0, run1, lead
}

// longestOnes returns the length of the longest run of set bits.
func longestOnes(x uint64) int {
	n := 0
	for x != 0 {
		x &= x << 1
		n++
	}
	return n
}

// ingestSymbol advances the RCT and APT by one symbol.
func (m *Monitor) ingestSymbol(sym uint64) *Violation {
	m.counters.SymbolsTested++

	// Repetition count test.
	if m.haveLast && sym == m.last {
		m.run++
	} else {
		m.last, m.haveLast, m.run = sym, true, 1
	}
	if int64(m.run) > m.counters.LongestRun {
		m.counters.LongestRun = int64(m.run)
	}
	if m.run >= m.cfg.RCTCutoff {
		v := &Violation{Test: TestRCT, Detail: fmt.Sprintf(
			"symbol %#x repeated %d times (cutoff %d, width %d bits)",
			m.last, m.run, m.cfg.RCTCutoff, m.cfg.SymbolBits)}
		m.haveLast, m.run = false, 0
		return v
	}

	// Adaptive proportion test.
	if m.seen == 0 {
		m.ref, m.refCount = sym, 0
	}
	m.seen++
	if sym == m.ref {
		m.refCount++
		if m.refCount >= m.cfg.APTCutoff {
			v := &Violation{Test: TestAPT, Detail: fmt.Sprintf(
				"symbol %#x occurred %d times in a %d-symbol window (cutoff %d, width %d bits)",
				m.ref, m.refCount, m.cfg.APTWindow, m.cfg.APTCutoff, m.cfg.SymbolBits)}
			m.refCount, m.seen = 0, 0
			return v
		}
	}
	if m.seen >= m.cfg.APTWindow {
		m.refCount, m.seen = 0, 0
	}
	return nil
}

// biasWindowDone evaluates and clears a completed bias window — the bias
// check, then the temperature-drift check — crediting the sink when the
// window is clean. A window reaching here passed RCT and APT continuously (a
// trip resets the stream before the window completes), so a clean return
// certifies the whole window.
func (m *Monitor) biasWindowDone() *Violation {
	ones, bits := m.winOnes, m.winBits
	m.winOnes, m.winBits = 0, 0
	delta := math.Abs(float64(ones)/float64(bits) - 0.5)
	m.counters.BiasDelta = delta
	if m.cfg.MaxBiasDelta >= 0 && delta > m.cfg.MaxBiasDelta {
		return &Violation{Test: TestBias, Detail: fmt.Sprintf(
			"|ones-fraction - 0.5| = %.3f over %d bits exceeds %.3f",
			delta, bits, m.cfg.MaxBiasDelta)}
	}
	if m.cfg.Temperature != nil {
		if drift := math.Abs(m.cfg.Temperature() - m.baseTempC); drift > MaxTempDriftC {
			return &Violation{Test: TestTemp, Detail: fmt.Sprintf(
				"%.1f °C drift from the %.1f °C baseline exceeds %.1f °C",
				drift, m.baseTempC, MaxTempDriftC)}
		}
	}
	m.counters.CleanWindows++
	if m.sink != nil {
		m.sink.CreditBits(bits)
	}
	return nil
}

// recordTrip updates the per-test trip counters.
func (m *Monitor) recordTrip(v *Violation) {
	switch v.Test {
	case TestRCT:
		m.counters.RCTTrips++
	case TestAPT:
		m.counters.APTTrips++
	case TestBias:
		m.counters.BiasTrips++
	case TestTemp:
		m.counters.TempTrips++
	}
	m.counters.LastViolation = fmt.Sprintf("%s: %s", v.Test, v.Detail)
}

// Startup runs the SP 800-90B style startup self-test over the first bits of
// a source: a fresh Monitor's RCT/APT/bias pass, then the NIST battery at
// significance alpha (nist.DefaultAlpha when 0). Bits too few for the NIST
// battery skip it — the continuous tests still apply — so a caller that
// configures a tiny startup sample is not failed for streaming too little.
// It returns the violation that tripped, or nil when the sample is clean.
func Startup(bits []byte, cfg Config, alpha float64) (*Violation, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if v := m.Ingest(bits); v != nil {
		return &Violation{Test: TestStartup, Detail: fmt.Sprintf("%s: %s", v.Test, v.Detail)}, nil
	}
	if alpha == 0 {
		alpha = nist.DefaultAlpha
	}
	res, err := nist.RunAll(bits, alpha)
	if err != nil {
		if errors.Is(err, nist.ErrInsufficientData) {
			return nil, nil // too few bits for the battery; RCT/APT passed
		}
		return nil, fmt.Errorf("health: startup battery: %w", err)
	}
	for _, r := range res.Results {
		if r.Applicable && !r.Pass {
			return &Violation{Test: TestStartup, Detail: fmt.Sprintf(
				"NIST %s failed on the first %d bits (p=%.3g < alpha %.3g)",
				r.Name, len(bits), r.PValue, alpha)}, nil
		}
	}
	return nil, nil
}
