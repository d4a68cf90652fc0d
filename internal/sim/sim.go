// Package sim provides the workload measurements of the paper's idle
// bandwidth study (Section 7.3): the replay of workload traces through the
// memory controller, and the TRNG throughput left over in the idle DRAM
// cycles they leave. The Algorithm 2 timing behind Figure 8 and the 64-bit
// latency comes from core's estimators, which run the served TRNG loop.
package sim

import (
	"fmt"

	"repro/internal/memctrl"
	"repro/internal/workload"
)

// ReplayResult summarises the replay of a workload trace through the memory
// controller.
type ReplayResult struct {
	Requests     int
	TotalNS      float64
	BusyNS       float64
	IdleFraction float64
}

// ReplayWorkload replays the request trace through the controller with
// nominal timing and measures the fraction of time the DRAM channel is left
// idle: the budget available to D-RaNGe without delaying the workload's own
// requests.
func ReplayWorkload(ctrl *memctrl.Controller, reqs []workload.Request) (ReplayResult, error) {
	if len(reqs) == 0 {
		return ReplayResult{}, fmt.Errorf("sim: empty workload trace")
	}
	geom := ctrl.Device().Geometry()
	p := ctrl.Params()
	busyCycles := int64(0)
	word := make([]uint64, geom.WordBits/64)
	for _, r := range reqs {
		if r.Bank < 0 || r.Bank >= geom.Banks || r.Row < 0 || r.Row >= geom.RowsPerBank ||
			r.WordIdx < 0 || r.WordIdx >= geom.WordsPerRow() {
			return ReplayResult{}, fmt.Errorf("sim: request %+v outside device geometry", r)
		}
		arrivalCycle := p.Cycles(r.ArrivalNS)
		if arrivalCycle > ctrl.Now() {
			ctrl.Idle(arrivalCycle - ctrl.Now())
		}
		before := ctrl.Now()
		var err error
		if r.IsWrite {
			_, err = ctrl.WriteWord(r.Bank, r.Row, r.WordIdx, word)
		} else {
			_, _, err = ctrl.ReadWord(r.Bank, r.Row, r.WordIdx)
		}
		if err != nil {
			return ReplayResult{}, err
		}
		busyCycles += ctrl.Now() - before
	}
	end := ctrl.SyncAllBanks()
	totalNS := p.NS(end)
	busyNS := p.NS(busyCycles)
	res := ReplayResult{
		Requests: len(reqs),
		TotalNS:  totalNS,
		BusyNS:   busyNS,
	}
	if totalNS > 0 {
		res.IdleFraction = 1 - busyNS/totalNS
		if res.IdleFraction < 0 {
			res.IdleFraction = 0
		}
	}
	return res, nil
}

// IdleBandwidthThroughputMbps estimates the TRNG throughput achievable by
// issuing D-RaNGe commands only in the idle DRAM cycles left by a workload:
// the standalone throughput scaled by the idle fraction, which is the model
// the paper's Section 7.3 interference study uses.
func IdleBandwidthThroughputMbps(standaloneMbps, idleFraction float64) (float64, error) {
	if standaloneMbps < 0 {
		return 0, fmt.Errorf("sim: negative standalone throughput")
	}
	if idleFraction < 0 || idleFraction > 1 {
		return 0, fmt.Errorf("sim: idle fraction %v outside [0,1]", idleFraction)
	}
	return standaloneMbps * idleFraction, nil
}
