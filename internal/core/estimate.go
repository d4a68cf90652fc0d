package core

import (
	"fmt"

	"repro/internal/memctrl"
	"repro/internal/power"
)

// LoopResult is the measured timing of the Algorithm 2 core loop.
type LoopResult struct {
	Banks             int
	Iterations        int
	TotalCycles       int64
	TotalNS           float64
	NSPerIteration    float64
	BitsPerIteration  int
	ThroughputMbps    float64
	ReadsPerIteration int
}

// estimatorTRNG prepares a TRNG over the top banks selections for the
// estimators. It writes no data pattern: each word's current content is its
// restore value, since the loop's timing does not depend on the data.
func estimatorTRNG(ctrl *memctrl.Controller, selections []BankSelection, trcdNS float64, banks int) (*TRNG, error) {
	if banks <= 0 || banks > len(selections) {
		return nil, fmt.Errorf("core: banks must be in [1,%d], got %d", len(selections), banks)
	}
	return newTRNG(ctrl, selections[:banks], TRNGConfig{TRCDNS: trcdNS})
}

// timeLoop runs iterations passes of t's core loop — the loop every Source
// serves from — and times them on t's controller, up to the cycle at which
// every bank's timing windows have closed.
func timeLoop(t *TRNG, iterations int) (LoopResult, error) {
	if iterations <= 0 {
		return LoopResult{}, fmt.Errorf("core: iterations must be positive, got %d", iterations)
	}
	bits := t.BitsPerIteration()
	start := t.ctrl.Now()
	for i := 0; i < iterations; i++ {
		// Drop the previous pass's bits, so each harvest runs exactly one
		// pass and the buffer never holds more than one.
		t.bits = bitBuffer{words: t.bits.words[:0]}
		if err := t.harvest(bits); err != nil {
			return LoopResult{}, err
		}
	}
	totalCycles := t.ctrl.SyncAllBanks() - start
	totalNS := t.ctrl.Params().NS(totalCycles)
	perIterNS := totalNS / float64(iterations)
	res := LoopResult{
		Banks:             t.Banks(),
		Iterations:        iterations,
		TotalCycles:       totalCycles,
		TotalNS:           totalNS,
		NSPerIteration:    perIterNS,
		BitsPerIteration:  bits,
		ReadsPerIteration: 2 * t.Banks(),
	}
	if perIterNS > 0 {
		// bits per ns × 1000 = Mb/s.
		res.ThroughputMbps = float64(bits) / perIterNS * 1000.0
	}
	return res, nil
}

// ThroughputEstimate measures the D-RaNGe throughput (Mb/s) achievable with
// the top `banks` bank selections, by timing iterations passes of the TRNG's
// Algorithm 2 core loop on the cycle-accurate controller. This is the
// computation behind Figure 8 and Equation 1 of the paper.
func ThroughputEstimate(ctrl *memctrl.Controller, selections []BankSelection, trcdNS float64, banks, iterations int) (LoopResult, error) {
	t, err := estimatorTRNG(ctrl, selections, trcdNS, banks)
	if err != nil {
		return LoopResult{}, err
	}
	return timeLoop(t, iterations)
}

// MultiChannelThroughputMbps scales a single-channel throughput to a memory
// hierarchy with the given number of independent DRAM channels, as the paper
// does to report the 4-channel peak of 717.4 Mb/s.
func MultiChannelThroughputMbps(perChannelMbps float64, channels int) (float64, error) {
	if channels <= 0 {
		return 0, fmt.Errorf("core: channels must be positive, got %d", channels)
	}
	if perChannelMbps < 0 {
		return 0, fmt.Errorf("core: negative per-channel throughput")
	}
	return perChannelMbps * float64(channels), nil
}

// LatencyEstimate measures the time (ns) to harvest targetBits random bits
// with the given bank selections — the Section 7.3 latency analysis: the
// TRNG's core loop runs ⌈targetBits / bits per iteration⌉ passes. The
// paper's bounds come from the two extremes: a single bank whose words hold
// one RNG cell each (maximum latency) and all banks of all channels with
// four RNG cells per word (minimum latency). Multiple channels operate
// independently, so the caller divides targetBits across channels before
// calling.
func LatencyEstimate(ctrl *memctrl.Controller, selections []BankSelection, trcdNS float64, banks, targetBits int) (float64, error) {
	if targetBits <= 0 {
		return 0, fmt.Errorf("core: target bits must be positive, got %d", targetBits)
	}
	t, err := estimatorTRNG(ctrl, selections, trcdNS, banks)
	if err != nil {
		return 0, err
	}
	bits := t.BitsPerIteration()
	res, err := timeLoop(t, (targetBits+bits-1)/bits)
	if err != nil {
		return 0, err
	}
	return res.TotalNS, nil
}

// EnergyEstimate runs the Algorithm 2 loop on a trace-enabled controller and
// returns the marginal energy per generated bit in nanojoules, following the
// paper's DRAMPower-based methodology (trace energy minus idle energy,
// divided by bits generated).
func EnergyEstimate(ctrl *memctrl.Controller, selections []BankSelection, trcdNS float64, banks, iterations int, model power.Model) (float64, error) {
	ctrl.ResetTrace()
	startCycle := ctrl.Now()
	res, err := ThroughputEstimate(ctrl, selections, trcdNS, banks, iterations)
	if err != nil {
		return 0, err
	}
	trace := ctrl.Trace()
	if len(trace) == 0 {
		return 0, fmt.Errorf("core: controller has no command trace; construct it with memctrl.WithTrace()")
	}
	bits := int64(res.BitsPerIteration) * int64(iterations)
	return model.EnergyPerBitNJ(trace, ctrl.Params(), ctrl.Now()-startCycle, bits)
}
