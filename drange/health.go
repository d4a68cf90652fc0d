package drange

import (
	"fmt"

	"repro/internal/health"
)

// HealthAction selects what a Source does when a continuous health test
// trips. The zero value resolves to the surface's default: HealthActionError
// for Open, HealthActionEvict for OpenPool.
type HealthAction int

const (
	// HealthActionDefault resolves to HealthActionError on a single Source
	// and HealthActionEvict on a Pool.
	HealthActionDefault HealthAction = iota
	// HealthActionBlock stalls the read on an RCT or APT trip: the dirty
	// batch is discarded and fresh bits are harvested until a batch passes
	// cleanly (bounded by HealthTestPolicy.MaxBlockedWindows, after which the
	// read fails with a HealthError). Readers of a transiently noisy device
	// see latency, never tainted bits. A bias or temperature trip judges a
	// whole bias window whose earlier bits were already served, so discarding
	// cannot hold it back: under Block it takes the surface's other action —
	// a Pool retires the member (as HealthActionEvict), a single Source fails
	// the read (as HealthActionError).
	HealthActionBlock
	// HealthActionError fails the read with a *HealthError, leaving the
	// decision to the caller. The source remains usable; the tripped test
	// restarts from a clean window.
	HealthActionError
	// HealthActionEvict takes the offending device out of a Pool —
	// quarantined for re-characterization under WithRecharacterization,
	// evicted otherwise (reads continue from the surviving members; the last
	// healthy member is retained with the violation recorded until a clean
	// window clears it). It only applies to OpenPool.
	HealthActionEvict
)

// String implements fmt.Stringer.
func (a HealthAction) String() string {
	switch a {
	case HealthActionDefault:
		return "default"
	case HealthActionBlock:
		return "block"
	case HealthActionError:
		return "error"
	case HealthActionEvict:
		return "evict"
	}
	return fmt.Sprintf("HealthAction(%d)", int(a))
}

// HealthTestPolicy configures the online health tests attached with
// WithHealthTests — the one source of device-health verdicts: the SP 800-90B
// Repetition Count Test and Adaptive Proportion Test over configurable
// symbol widths, a windowed bias monitor, a temperature-drift check at every
// bias window (a device more than 10 °C from its open-time or readmission
// temperature trips "temp"; the paper's Section 5.3 shows RNG cells moving
// with temperature), and a startup self-test that must pass before Open (or
// OpenPool) serves a single byte. Every trip follows OnFailure. Zero fields
// select the documented defaults, so WithHealthTests(HealthTestPolicy{})
// enables the full default battery.
type HealthTestPolicy struct {
	// SymbolBits is the RCT/APT symbol width in [1, 16]; harvested bits are
	// packed MSB-first. 0 selects 1 (the raw bitstream). Wider symbols catch
	// periodic structure single bits cannot.
	SymbolBits int
	// RCTCutoff trips the repetition count test at this many consecutive
	// identical symbols. 0 derives the SP 800-90B cutoff for a full-entropy
	// source at a 2^-30 false-positive rate (31 for 1-bit symbols).
	RCTCutoff int
	// APTWindow and APTCutoff parameterize the adaptive proportion test. 0
	// selects the SP 800-90B window (1024 symbols binary, 512 otherwise) and
	// the exact critical binomial cutoff at 2^-30.
	APTWindow int
	APTCutoff int
	// BiasWindowBits is the bias monitor's window (0 selects 4096), which
	// also paces the temperature-drift check; MaxBiasDelta trips the bias
	// monitor when |ones-fraction − 0.5| over a window exceeds it (0 selects
	// 0.1; negative disables the bias check, not the temperature check).
	BiasWindowBits int
	MaxBiasDelta   float64
	// StartupBits is the number of bits harvested and self-tested at Open
	// before any byte is served: a fresh RCT/APT/bias pass plus a NIST
	// battery (tests inapplicable at this length are skipped). The sample is
	// discarded. 0 selects 4096; negative disables the startup self-test.
	StartupBits int
	// StartupAlpha is the significance level of the startup NIST battery. 0
	// selects 1e-6 — loose enough that a healthy source false-fails an Open
	// with negligible probability, while a stuck or biased device produces
	// p-values indistinguishable from zero.
	StartupAlpha float64
	// OnFailure selects the response to a trip; see HealthAction.
	OnFailure HealthAction
	// MaxBlockedWindows bounds HealthActionBlock: after discarding this many dirty
	// batches within one read, the read fails with a HealthError instead of
	// stalling forever on a dead device. 0 selects 64.
	MaxBlockedWindows int
	// Disabled turns the subsystem off (as if WithHealthTests was never
	// applied); it exists so callers can thread one policy value through
	// configuration layers.
	Disabled bool
}

// withDefaults resolves the zero fields the facade reads itself; pool
// selects the surface default action. The monitor knobs (cutoffs, windows,
// bias bound) are deliberately left to health.New — internal/health owns
// those defaults, and resolving them here too would be a second table that
// could drift.
func (p HealthTestPolicy) withDefaults(pool bool) HealthTestPolicy {
	if p.SymbolBits == 0 {
		p.SymbolBits = 1
	}
	if p.StartupBits == 0 {
		p.StartupBits = 4096
	}
	if p.StartupAlpha == 0 {
		p.StartupAlpha = 1e-6
	}
	if p.MaxBlockedWindows == 0 {
		p.MaxBlockedWindows = 64
	}
	if p.OnFailure == HealthActionDefault {
		if pool {
			p.OnFailure = HealthActionEvict
		} else {
			p.OnFailure = HealthActionError
		}
	}
	return p
}

// config maps the policy onto the internal monitor configuration, without a
// temperature probe: the serving core adds its member's device probe, and
// the startup self-test runs without one.
func (p HealthTestPolicy) config() health.Config {
	return health.Config{
		SymbolBits:     p.SymbolBits,
		RCTCutoff:      p.RCTCutoff,
		APTWindow:      p.APTWindow,
		APTCutoff:      p.APTCutoff,
		BiasWindowBits: p.BiasWindowBits,
		MaxBiasDelta:   p.MaxBiasDelta,
	}
}

// HealthError is the typed error surfaced when an online health test trips
// under the HealthActionError policy (or when HealthActionBlock exhausts its window
// budget, or a startup self-test fails at Open/OpenPool). Match it with
// errors.As.
type HealthError struct {
	// Test is the tripped test: "rct", "apt", "bias", "temp", "startup" or
	// "blocked" (a HealthActionBlock source that never found a clean window).
	Test string
	// Device is the pool member index the trip occurred on, or -1 for a
	// single-device Source.
	Device int
	// Detail describes the trip.
	Detail string
}

// Error implements error.
func (e *HealthError) Error() string {
	dev := ""
	if e.Device >= 0 {
		dev = fmt.Sprintf(" on pool device %d", e.Device)
	}
	return fmt.Sprintf("drange: health test %q tripped%s: %s", e.Test, dev, e.Detail)
}

// HealthStats is the online health-test accounting of a Source, reported in
// Stats.Health (and per pool member in PoolDeviceStats.Health) when
// WithHealthTests is attached — directly, or implied by WithDRBG or
// WithRecharacterization. A Pool's aggregate sums the member counts and
// holds the largest member LongestRun and BiasDelta.
type HealthStats struct {
	// SymbolBits is the RCT/APT symbol width in effect.
	SymbolBits int `json:"symbol_bits"`
	// BitsTested and SymbolsTested count the stream fed through the tests.
	BitsTested    int64 `json:"bits_tested"`
	SymbolsTested int64 `json:"symbols_tested"`
	// RCTTrips, APTTrips, BiasTrips and TempTrips count trips per test;
	// TotalTrips is their sum.
	RCTTrips   int64 `json:"rct_trips"`
	APTTrips   int64 `json:"apt_trips"`
	BiasTrips  int64 `json:"bias_trips"`
	TempTrips  int64 `json:"temp_trips"`
	TotalTrips int64 `json:"total_trips"`
	// LongestRun is the longest run of identical symbols observed.
	LongestRun int64 `json:"longest_run"`
	// BiasDelta is |ones-fraction − 0.5| over the last completed bias
	// window.
	BiasDelta float64 `json:"bias_delta"`
	// BlockedWindows counts dirty batches discarded under HealthActionBlock.
	BlockedWindows int64 `json:"blocked_windows"`
	// StartupPassed reports whether the startup self-test passed (true when
	// the startup test is disabled: nothing failed).
	StartupPassed bool `json:"startup_passed"`
	// LastViolation describes the most recent trip ("" when none).
	LastViolation string `json:"last_violation,omitempty"`
}

// healthStatsFrom assembles the public snapshot from a monitor's counters.
func healthStatsFrom(m *health.Monitor, blockedWindows int64, startupOK bool) *HealthStats {
	c := m.Counters()
	return &HealthStats{
		SymbolBits:     m.Config().SymbolBits,
		BitsTested:     c.BitsTested,
		SymbolsTested:  c.SymbolsTested,
		RCTTrips:       c.RCTTrips,
		APTTrips:       c.APTTrips,
		BiasTrips:      c.BiasTrips,
		TempTrips:      c.TempTrips,
		TotalTrips:     c.Trips(),
		LongestRun:     c.LongestRun,
		BiasDelta:      c.BiasDelta,
		BlockedWindows: blockedWindows,
		StartupPassed:  startupOK,
		LastViolation:  c.LastViolation,
	}
}

// runStartup runs the startup self-test over a freshly harvested sample and
// maps failures onto HealthError. device is the pool member index (-1 for
// single sources).
func runStartup(bits []byte, p HealthTestPolicy, device int) error {
	v, err := health.Startup(bits, p.config(), p.StartupAlpha)
	if err != nil {
		return fmt.Errorf("drange: startup health test: %w", err)
	}
	if v != nil {
		return &HealthError{Test: string(health.TestStartup), Device: device, Detail: v.Detail}
	}
	return nil
}

// WithHealthTests attaches the online health tests to the opened Source:
// every harvested bit streams through the Repetition Count Test, the
// Adaptive Proportion Test and a windowed bias monitor before it reaches the
// caller (and before any WithPostprocess chain — the tests watch the raw
// noise source, as SP 800-90B prescribes), each bias window also checks the
// device's temperature drift, and Open/OpenPool run a startup self-test on
// the first StartupBits bits before serving any byte. Without it (or
// WithDRBG or WithRecharacterization, which imply it) no device health is
// watched, on a Generator and a Pool alike. The zero policy enables the full
// default battery; see HealthTestPolicy for the knobs and HealthAction for
// the trip responses. Health accounting is reported in Stats.Health. It
// applies to Open and OpenPool, not Characterize.
func WithHealthTests(p HealthTestPolicy) Option {
	return func(o *options) { o.healthTests = &p }
}
