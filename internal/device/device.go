// Package device defines the device contract the D-RaNGe stack is written
// against. Every layer that drives DRAM — the memory-controller model
// (internal/memctrl), the harvesting core and sharded engine (internal/core),
// the characterization profiler (internal/profiler) and the prior-work
// baselines (internal/baselines) — accepts this interface instead of the
// concrete simulated *dram.Device, so alternative backends (operation
// record/replay, fault injection, and eventually real-hardware shims) can be
// swapped in without touching the pipeline.
//
// Two optional capabilities let the simulator skip per-command overhead on
// the sampling path: WordReaderInto reads a word into a caller-owned buffer,
// and WordSampler applies a whole sample of one word in one call — Algorithm
// 2's PRE, ACT, RD, WR, or a characterization probe with its refresh,
// restore-if-dirty and closing PRE. The memory controller asserts both once
// and falls back to the per-command Device methods, in issue order, for
// backends that lack them (operation replay, fault injection, public-facade
// adapters).
//
// The public facade (package drange) mirrors this contract with public types
// as drange.Device and adapts registered backends onto it.
package device

import (
	"repro/internal/dram"
	"repro/internal/timing"
)

// Device is the minimal DRAM-device contract the pipeline needs: geometry and
// timing discovery, row activation at a caller-chosen (possibly reduced) tRCD
// with precharge/refresh, DRAM-word column accesses, the whole-row profiling
// conveniences, temperature, and operation statistics.
//
// Implementations must be safe for concurrent use by multiple goroutines: the
// paper exploits bank-level parallelism, and the sharded engine drives
// different banks from different goroutines.
type Device interface {
	// Serial identifies the device instance. Profiles are keyed on it: RNG
	// cell locations are per-device process variation, so a profile must only
	// ever be opened against the device it was characterized on.
	Serial() uint64
	// Geometry describes the addressable organisation of the device.
	Geometry() dram.Geometry
	// Timing returns the device's JEDEC timing parameter set; controllers
	// schedule commands and convert cycles to wall time with it.
	Timing() timing.Params

	// Activate opens row in bank with the given activation latency in
	// nanoseconds. Activating below the cell-dependent critical latency arms
	// activation-failure injection for the first word read from the row.
	// Activating an already-open bank is an error.
	Activate(bank, row int, trcdNS float64) error
	// Precharge closes the open row of bank (no-op when already closed).
	Precharge(bank int) error
	// Refresh performs an all-bank refresh; every bank must be precharged.
	Refresh() error
	// ReadWord reads DRAM word wordIdx from the row open in bank. The first
	// word read after a reduced-tRCD activation carries activation failures.
	ReadWord(bank, wordIdx int) ([]uint64, error)
	// WriteWord writes DRAM word wordIdx of the row open in bank.
	WriteWord(bank, wordIdx int, word []uint64) error

	// WriteRow writes the full content of (bank, row) directly, bypassing the
	// command interface — the profiling shortcut for installing data patterns.
	WriteRow(bank, row int, data []uint64) error
	// ReadRowRaw returns the stored content of (bank, row) without opening
	// the row and without failure injection.
	ReadRowRaw(bank, row int) ([]uint64, error)
	// StartupRow returns the power-up content of (bank, row), used by the
	// startup-value TRNG baselines. It must not disturb device state.
	StartupRow(bank, row int) ([]uint64, error)

	// SetTemperature sets the DRAM temperature in degrees Celsius;
	// Temperature reports it. Failure probabilities are
	// temperature-dependent (Section 5.3 of the paper), which is why pool
	// health monitoring watches this value for drift.
	SetTemperature(c float64) error
	Temperature() float64

	// Stats returns a snapshot of the device's operation counters.
	Stats() dram.DeviceStats
}

// The simulated device is the reference implementation of the contract.
var _ Device = (*dram.Device)(nil)

// WordReaderInto is an optional device capability: an allocation-free
// ReadWord variant writing into a caller-owned buffer. The memory controller
// uses it for every read it hands the device command by command (the
// simulator implements it); wrapping backends that do not are served through
// ReadWord with a copy.
type WordReaderInto interface {
	// ReadWordInto reads DRAM word wordIdx from the row open in bank into
	// dst, which must hold Geometry().WordBits/64 uint64s. Failure-injection
	// semantics match ReadWord exactly.
	ReadWordInto(bank, wordIdx int, dst []uint64) error
}

var _ WordReaderInto = (*dram.Device)(nil)

// WordSampler is an optional device capability: one sample of a DRAM word as
// a single call, which memctrl.Controller.SamplePhase issues for serving's
// Algorithm 2 and characterization's Algorithm 1 alike. The memory controller
// still times, counts and traces each command of the sample; it hands the
// device the whole sample at the READ's slot instead of one call per
// command. Only the simulator implements it.
type WordSampler interface {
	// SampleWord applies, in order: Precharge(bank) under
	// dram.SamplePrecharge; Activate(bank, row) at the default tRCD and
	// Precharge(bank) under dram.SampleRefresh; Activate(bank, row, trcdNS);
	// ReadWordInto(bank, wordIdx, dst); WriteWord(bank, wordIdx, restore),
	// which dram.SampleRestoreIfDirty skips when dst equals restore; and
	// Precharge(bank) under dram.SampleClose. Effects and errors match that
	// sequence, except that invalid arguments are rejected before any
	// command applies.
	SampleWord(bank, row, wordIdx int, mode dram.SampleMode, trcdNS float64, dst, restore []uint64) error
}

var _ WordSampler = (*dram.Device)(nil)
