// Command drange-figures regenerates the tables and figures of the paper's
// evaluation from the simulated DRAM population, printing the same rows and
// series the paper reports. See README.md for the module guide and
// bench/README.md for the measured performance of each layer.
//
// The generator-level results go through the public profile-centric API
// (drange.Characterize once, drange.Open per configuration); the Section 5
// characterization experiments drive a raw simulated device through the
// internal profiler, as the paper's methodology does.
//
// Examples:
//
//	drange-figures -fig 8          # TRNG throughput vs number of banks
//	drange-figures -table 2        # comparison with prior DRAM TRNGs
//	drange-figures -table 1 -bits 200000
//	drange-figures -all
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/drange"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/nist"
	"repro/internal/pattern"
	"repro/internal/power"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/workload"
)

type harness struct {
	manufacturer string
	profile      *drange.Profile
	gen          *drange.Generator
	// expDev is a raw simulated device of the same identity used by the
	// Section 5 characterization experiments, which operate below the
	// public API.
	expDev *dram.Device
}

func main() {
	var (
		fig          = flag.String("fig", "", "figure to regenerate: 4, 5, 6, 7, 8, time, trcd, scaling")
		table        = flag.String("table", "", "table to regenerate: 1, 2, latency, energy, interference")
		all          = flag.Bool("all", false, "regenerate everything")
		manufacturer = flag.String("manufacturer", "A", "manufacturer profile: A, B or C")
		serial       = flag.Uint64("serial", 1, "device serial number")
		bits         = flag.Int("bits", 100000, "bits per bitstream for the Table 1 NIST evaluation")
		cells        = flag.Int("cells", 2, "RNG cells to evaluate for Table 1")
	)
	flag.Parse()
	if *fig == "" && *table == "" && !*all {
		fmt.Fprintln(os.Stderr, "drange-figures: pass -fig, -table or -all")
		os.Exit(2)
	}

	ctx := context.Background()
	profile, err := drange.Characterize(ctx,
		drange.WithManufacturer(*manufacturer),
		drange.WithSerial(*serial),
		drange.WithDeterministic(true),
	)
	if err != nil {
		fatal(err)
	}
	src, err := drange.Open(ctx, profile)
	if err != nil {
		fatal(err)
	}
	defer src.Close()
	// The experiment device shares the profiled device's process variation
	// (same serial and manufacturer, so identical weak cells) but draws its
	// own seeded noise stream: per-cell failure outcomes are statistically
	// equivalent, not draw-for-draw identical, to the characterization run.
	expDev, err := dram.NewDevice(dram.Config{
		Serial:       *serial,
		Manufacturer: dram.Manufacturer(*manufacturer),
		Noise:        dram.NewDeterministicBankNoise(*serial),
	})
	if err != nil {
		fatal(err)
	}
	h := &harness{
		manufacturer: *manufacturer,
		profile:      profile,
		gen:          src.(*drange.Generator),
		expDev:       expDev,
	}
	fmt.Printf("# device: manufacturer %s, serial %d, %d RNG cells identified across %d banks\n\n",
		*manufacturer, *serial, len(profile.Cells), profile.Banks())

	run := func(name string, f func() error) {
		fmt.Printf("== %s ==\n", name)
		if err := f(); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	if *all || *fig == "4" {
		run("Figure 4: spatial distribution of activation failures", h.figure4)
	}
	if *all || *fig == "5" {
		run("Figure 5: data pattern dependence", h.figure5)
	}
	if *all || *fig == "6" {
		run("Figure 6: temperature effects", h.figure6)
	}
	if *all || *fig == "time" {
		run("Section 5.4: entropy variation over time", h.timeStability)
	}
	if *all || *fig == "trcd" {
		run("Ablation: tRCD sweep", h.trcdSweep)
	}
	if *all || *table == "1" {
		run("Table 1: NIST statistical test suite", func() error { return h.table1(*bits, *cells) })
	}
	if *all || *fig == "7" {
		run("Figure 7: RNG cells per DRAM word", h.figure7)
	}
	if *all || *fig == "8" {
		run("Figure 8: TRNG throughput vs banks", h.figure8)
	}
	if *all || *fig == "scaling" {
		run("Engine scaling: measured multi-shard throughput", h.engineScaling)
	}
	if *all || *table == "latency" {
		run("Section 7.3: 64-bit latency", h.latency)
	}
	if *all || *table == "energy" {
		run("Section 7.3: energy per bit", h.energy)
	}
	if *all || *table == "interference" {
		run("Section 7.3: idle-bandwidth throughput under workloads", h.interference)
	}
	if *all || *table == "2" {
		run("Table 2: comparison with prior DRAM TRNGs", h.table2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "drange-figures: %v\n", err)
	os.Exit(1)
}

func (h *harness) charConfig(iterations int) profiler.Config {
	return profiler.Config{TRCDNS: 10.0, Iterations: iterations, Pattern: pattern.BestFor(h.manufacturer)}
}

func (h *harness) figure4() error {
	ctrl := memctrl.NewController(h.expDev)
	rows := h.expDev.Geometry().RowsPerBank
	if rows > 512 {
		rows = 512
	}
	m, err := profiler.SpatialDistribution(ctrl, 0, rows, 1024, h.charConfig(10))
	if err != nil {
		return err
	}
	fmt.Printf("window: %d rows x 1024 columns; failing columns: %v\n", rows, m.FailingColumns())
	lower, upper := 0, 0
	for r := 0; r < rows/2; r++ {
		lower += m.FailuresPerRow[r]
	}
	for r := rows / 2; r < rows; r++ {
		upper += m.FailuresPerRow[r]
	}
	fmt.Printf("failing cells in lower half rows: %d, upper half rows: %d (paper: failures increase with row index in a subarray)\n", lower, upper)
	return nil
}

func (h *harness) figure5() error {
	ctrl := memctrl.NewController(h.expDev)
	region := profiler.Region{Bank: 0, RowStart: 0, RowCount: 128, WordStart: 0, WordCount: 8}
	cov, err := profiler.DataPatternDependence(ctrl, region, pattern.All(), h.charConfig(10))
	if err != nil {
		return err
	}
	fmt.Println("pattern coverage failures cells_with_fprob_40_60")
	for _, c := range cov {
		fmt.Printf("%-12s %.3f %6d %6d\n", c.Pattern, c.Coverage, c.Failures, c.MidProbCells)
	}
	best, err := profiler.BestPatternByMidProbCells(cov)
	if err != nil {
		return err
	}
	fmt.Printf("best pattern by ~50%% cells: %v\n", best.Pattern)
	return nil
}

func (h *harness) figure6() error {
	ctrl := memctrl.NewController(h.expDev)
	region := profiler.Region{Bank: 0, RowStart: 0, RowCount: 128, WordStart: 0, WordCount: 8}
	fmt.Println("baseT cells increased decreased median_delta")
	for _, base := range []float64{55, 60, 65} {
		res, err := profiler.TemperatureSweep(ctrl, region, h.charConfig(25), base, 5)
		if err != nil {
			return err
		}
		fmt.Printf("%.0f %5d %.3f %.3f %+.4f\n", base, len(res.Points), res.IncreasedFraction, res.DecreasedFraction, res.DeltaSummary.Median)
	}
	return nil
}

func (h *harness) timeStability() error {
	ctrl := memctrl.NewController(h.expDev)
	region := profiler.Region{Bank: 0, RowStart: 0, RowCount: 64, WordStart: 0, WordCount: 8}
	res, err := profiler.TimeStability(ctrl, region, h.charConfig(25), 5)
	if err != nil {
		return err
	}
	fmt.Printf("rounds: %d, tracked cells: %d, worst Fprob drift: %.4f (paper: no significant change over 15 days)\n",
		res.Rounds, len(res.MeanFprobPerCell), res.WorstDrift)
	return nil
}

func (h *harness) trcdSweep() error {
	ctrl := memctrl.NewController(h.expDev)
	region := profiler.Region{Bank: 0, RowStart: 0, RowCount: 64, WordStart: 0, WordCount: 8}
	points, err := profiler.TRCDSweep(ctrl, region, h.charConfig(10), []float64{6, 8, 10, 12, 13, 14, 16, 18})
	if err != nil {
		return err
	}
	fmt.Println("trcd_ns failing_cells cells_with_fprob_40_60")
	for _, p := range points {
		fmt.Printf("%5.1f %6d %6d\n", p.TRCDNS, p.FailingCells, p.MidProbCells)
	}
	return nil
}

func (h *harness) table1(bitsPerStream, nCells int) error {
	cells := h.profile.Cells
	if nCells > len(cells) {
		nCells = len(cells)
	}
	if nCells == 0 {
		return fmt.Errorf("no RNG cells identified")
	}
	agg := make(map[string][]float64)
	for i := 0; i < nCells; i++ {
		cell := core.RNGCell{
			Addr:          profiler.CellAddr{Bank: cells[i].Bank, Row: cells[i].Row, Col: cells[i].Col},
			WordIdx:       cells[i].Word,
			Fprob:         cells[i].FailProbability,
			SymbolEntropy: cells[i].SymbolEntropy,
		}
		ctrl := memctrl.NewController(h.expDev)
		stream, err := core.SampleCell(ctrl, cell, pattern.BestFor(h.manufacturer), 10.0, bitsPerStream)
		if err != nil {
			return err
		}
		res, err := nist.RunAll(stream, nist.DefaultAlpha)
		if err != nil {
			return err
		}
		for _, r := range res.Results {
			if r.Applicable {
				agg[r.Name] = append(agg[r.Name], r.PValue)
			}
		}
	}
	fmt.Printf("%d bitstreams of %d bits, alpha = %g\n", nCells, bitsPerStream, nist.DefaultAlpha)
	fmt.Printf("%-38s %-10s %s\n", "NIST Test Name", "P-value", "Status")
	for _, name := range nist.TestNames() {
		ps, ok := agg[name]
		if !ok {
			fmt.Printf("%-38s %-10s N/A (stream too short)\n", name, "-")
			continue
		}
		mean, minP := 0.0, 1.0
		for _, p := range ps {
			mean += p
			if p < minP {
				minP = p
			}
		}
		mean /= float64(len(ps))
		status := "PASS"
		if minP < nist.DefaultAlpha {
			status = "FAIL"
		}
		fmt.Printf("%-38s %-10.3f %s\n", name, mean, status)
	}
	return nil
}

func (h *harness) figure7() error {
	hists := h.profile.DensityHistograms()
	fmt.Println("bank words_with_1 words_with_2 words_with_3 words_with_4+ total_rng_cells max_per_word")
	for _, hist := range hists {
		fourPlus := 0
		for n, c := range hist.WordsWithNCells {
			if n >= 4 {
				fourPlus += c
			}
		}
		fmt.Printf("%4d %12d %12d %12d %13d %15d %12d\n", hist.Bank,
			hist.WordsWithNCells[1], hist.WordsWithNCells[2], hist.WordsWithNCells[3], fourPlus,
			hist.TotalRNGCells, hist.MaxCellsPerWord)
	}
	return nil
}

func (h *harness) figure8() error {
	fmt.Println("banks Mb/s_per_channel Mb/s_4_channels")
	for banks := 1; banks <= h.profile.Banks() && banks <= 8; banks++ {
		res, err := h.gen.EstimateThroughput(banks, 200)
		if err != nil {
			return err
		}
		four, err := core.MultiChannelThroughputMbps(res.ThroughputMbps, 4)
		if err != nil {
			return err
		}
		fmt.Printf("%5d %16.1f %15.1f\n", banks, res.ThroughputMbps, four)
	}
	return nil
}

// engineScaling measures the sharded harvesting engine at increasing shard
// counts by opening the same profile with WithShards: each shard is an
// independent channel/rank controller over a subset of the selected banks,
// so the aggregate simulated throughput reproduces the paper's claim that
// D-RaNGe scales with the banks and channels sampled in parallel. The final
// row is the Table 2 D-RaNGe entry built from the largest measured
// configuration.
func (h *harness) engineScaling() error {
	ctx := context.Background()
	fmt.Println("shards banks Mb/s_aggregate latency64_ns")
	var last drange.Stats
	for _, shards := range []int{1, 2, 4} {
		if shards > h.profile.Banks() {
			continue
		}
		src, err := drange.Open(ctx, h.profile, drange.WithShards(shards))
		if err != nil {
			return err
		}
		// Pull enough bits through every shard for a stable measurement.
		if _, err := src.ReadBits(4096 * shards); err != nil {
			src.Close()
			return err
		}
		st := src.Stats()
		src.Close()
		banks := 0
		for _, ss := range st.Shards {
			banks += ss.Banks
		}
		fmt.Printf("%6d %5d %14.1f %12.0f\n", len(st.Shards), banks, st.AggregateThroughputMbps, st.Latency64NS)
		last = st
	}
	energy, err := h.gen.EstimateEnergyPerBit(200)
	if err != nil {
		return err
	}
	row := baselines.DRangeRow(last.Latency64NS, energy, last.AggregateThroughputMbps)
	fmt.Printf("Table 2 row from measured engine figures: %.0f ns / 64 bits, %.2f nJ/bit, %.1f Mb/s peak\n",
		row.Latency64NS, row.EnergyPerBitNJ, row.PeakThroughputMbps)
	return nil
}

func (h *harness) latency() error {
	lat, err := h.gen.EstimateLatency64()
	if err != nil {
		return err
	}
	slow, err := h.gen.EstimateLatency(1, 64)
	if err != nil {
		return err
	}
	fmt.Printf("64-bit latency, all banks of one channel: %.0f ns\n", lat)
	fmt.Printf("64-bit latency, single bank:             %.0f ns\n", slow)
	fmt.Println("(paper: 100 ns best case with 4 channels, 960 ns worst case)")
	return nil
}

func (h *harness) energy() error {
	nj, err := h.gen.EstimateEnergyPerBit(200)
	if err != nil {
		return err
	}
	fmt.Printf("marginal energy: %.2f nJ/bit (paper: 4.4 nJ/bit)\n", nj)
	return nil
}

func (h *harness) interference() error {
	geom := h.profile.Geometry
	standalone, err := h.gen.EstimateThroughput(h.gen.Banks(), 200)
	if err != nil {
		return err
	}
	fmt.Println("workload idle_fraction trng_Mb/s")
	sum, minT, maxT := 0.0, 1e18, 0.0
	profiles := workload.Profiles()
	for _, p := range profiles {
		reqs, err := workload.Generate(p, workload.Config{
			Banks: geom.Banks, RowsPerBank: geom.RowsPerBank, WordsPerRow: geom.ColsPerRow / geom.WordBits,
			DurationNS: 200000, Seed: 11,
		})
		if err != nil {
			return err
		}
		rep, err := sim.ReplayWorkload(memctrl.NewController(h.expDev), reqs)
		if err != nil {
			return err
		}
		tput, err := sim.IdleBandwidthThroughputMbps(standalone.ThroughputMbps, rep.IdleFraction)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %.3f %10.1f\n", p.Name, rep.IdleFraction, tput)
		sum += tput
		if tput < minT {
			minT = tput
		}
		if tput > maxT {
			maxT = tput
		}
	}
	fmt.Printf("average %.1f Mb/s (min %.1f, max %.1f); paper: 83.1 (49.1–98.3) Mb/s\n",
		sum/float64(len(profiles)), minT, maxT)
	return nil
}

func (h *harness) table2() error {
	energy, err := h.gen.EstimateEnergyPerBit(200)
	if err != nil {
		return err
	}
	latency, err := h.gen.EstimateLatency64()
	if err != nil {
		return err
	}
	perChannel, err := h.gen.EstimateThroughput(h.gen.Banks(), 200)
	if err != nil {
		return err
	}
	peak, err := core.MultiChannelThroughputMbps(perChannel.ThroughputMbps, 4)
	if err != nil {
		return err
	}
	rows, err := baselines.Table2(h.expDev.Timing(), power.NewLPDDR4Model(), baselines.DRangeRow(latency, energy, peak))
	if err != nil {
		return err
	}
	fmt.Printf("%-32s %-6s %-6s %-14s %-16s %s\n", "Proposal", "True", "Stream", "64-bit latency", "Energy", "Peak throughput")
	for _, r := range rows {
		fmt.Printf("%-32s %-6v %-6v %12.0f ns %12.2f nJ/b %10.2f Mb/s\n",
			r.Name, r.TrueRandom, r.StreamingCapable, r.Latency64NS, r.EnergyPerBitNJ, r.PeakThroughputMbps)
	}
	return nil
}
