// bench_test.go is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (see README.md for the module guide, and
// bench/README.md for the layered end-to-end benchmark that measures host
// and simulated time). The benchmarks run against a reduced-size simulated
// device population so the whole harness completes in minutes;
// cmd/drange-figures runs the same experiments at larger scale and prints
// the full data series.
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/drange"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/entropy"
	"repro/internal/memctrl"
	"repro/internal/nist"
	"repro/internal/pattern"
	"repro/internal/postproc"
	"repro/internal/power"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchGeometry is a reduced device: every structural feature of the model
// is present (banks, subarrays, words) but small enough to characterize in
// seconds.
func benchGeometry() dram.Geometry {
	return dram.Geometry{
		Banks:        8,
		RowsPerBank:  256,
		ColsPerRow:   4096,
		SubarrayRows: 128,
		WordBits:     256,
	}
}

func benchProfile(m dram.Manufacturer) dram.Profile {
	p := dram.MustProfile(m)
	p.WeakColumnDensity = 1.0 / 24.0
	p.SubarrayRows = 128
	return p
}

func benchDevice(b *testing.B, serial uint64, m dram.Manufacturer) *dram.Device {
	b.Helper()
	prof := benchProfile(m)
	dev, err := dram.NewDevice(dram.Config{
		Serial:   serial,
		Profile:  &prof,
		Geometry: benchGeometry(),
		Noise:    dram.NewDeterministicNoise(serial),
	})
	if err != nil {
		b.Fatal(err)
	}
	return dev
}

func benchIdentifyConfig() core.IdentifyConfig {
	cfg := core.DefaultIdentifyConfig("A")
	cfg.ScreenIterations = 30
	cfg.Samples = 300
	cfg.Tolerance = 0.4
	cfg.MaxBiasDelta = 0.03
	return cfg
}

// benchState is the shared, lazily-built characterization of one device:
// identified RNG cells and per-bank word selections, reused by the
// throughput/latency/energy/NIST benchmarks.
type benchState struct {
	device     *dram.Device
	cells      []core.RNGCell
	selections []core.BankSelection
}

var (
	benchOnce  sync.Once
	benchSetup *benchState
	benchErr   error
)

func sharedState(b *testing.B) *benchState {
	b.Helper()
	benchOnce.Do(func() {
		dev := benchDevice(b, 0xD0A11CE5, dram.ManufacturerA)
		ctrl := memctrl.NewController(dev)
		st := &benchState{device: dev}
		for bank := 0; bank < dev.Geometry().Banks; bank++ {
			region := profiler.Region{Bank: bank, RowStart: 0, RowCount: 64, WordStart: 0, WordCount: 8}
			cells, err := core.IdentifyRNGCells(ctrl, region, benchIdentifyConfig())
			if err != nil {
				benchErr = err
				return
			}
			st.cells = append(st.cells, cells...)
		}
		sels, err := core.SelectBankWords(st.cells)
		if err != nil {
			benchErr = err
			return
		}
		st.selections = sels
		benchSetup = st
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSetup
}

// BenchmarkFigure4SpatialDistribution regenerates the Figure 4 experiment:
// the spatial distribution of activation failures over a cell-array window,
// reporting how concentrated failures are in weak columns.
func BenchmarkFigure4SpatialDistribution(b *testing.B) {
	dev := benchDevice(b, 41, dram.ManufacturerA)
	cfg := profiler.Config{TRCDNS: 10.0, Iterations: 8, Pattern: pattern.Solid0()}
	var failingCols, failedCells int
	for i := 0; i < b.N; i++ {
		ctrl := memctrl.NewController(dev)
		m, err := profiler.SpatialDistribution(ctrl, 0, 128, 1024, cfg)
		if err != nil {
			b.Fatal(err)
		}
		failingCols = len(m.FailingColumns())
		failedCells = 0
		for _, n := range m.FailuresPerRow {
			failedCells += n
		}
	}
	b.ReportMetric(float64(failingCols), "failing-columns")
	b.ReportMetric(float64(failedCells), "failing-cells")
}

// BenchmarkFigure5DataPatternDependence regenerates the Figure 5 experiment:
// per-data-pattern coverage of failure-prone cells. A representative subset
// of the 40 patterns keeps the benchmark short; cmd/drange-figures runs all
// of them.
func BenchmarkFigure5DataPatternDependence(b *testing.B) {
	dev := benchDevice(b, 51, dram.ManufacturerA)
	region := profiler.Region{Bank: 0, RowStart: 0, RowCount: 64, WordStart: 0, WordCount: 8}
	cfg := profiler.Config{TRCDNS: 10.0, Iterations: 8}
	pats := []pattern.Pattern{
		pattern.Solid0(), pattern.Solid1(), pattern.Checkered0(), pattern.Checkered1(),
		pattern.Walking0(0), pattern.Walking1(0),
	}
	var bestCoverage float64
	for i := 0; i < b.N; i++ {
		ctrl := memctrl.NewController(dev)
		cov, err := profiler.DataPatternDependence(ctrl, region, pats, cfg)
		if err != nil {
			b.Fatal(err)
		}
		best, err := profiler.BestPatternByMidProbCells(cov)
		if err != nil {
			b.Fatal(err)
		}
		bestCoverage = best.Coverage
	}
	b.ReportMetric(bestCoverage, "best-pattern-coverage")
}

// BenchmarkFigure6TemperatureEffect regenerates the Figure 6 experiment: how
// per-cell failure probability changes when the DRAM temperature rises by
// 5 °C.
func BenchmarkFigure6TemperatureEffect(b *testing.B) {
	dev := benchDevice(b, 61, dram.ManufacturerA)
	region := profiler.Region{Bank: 0, RowStart: 0, RowCount: 64, WordStart: 0, WordCount: 8}
	cfg := profiler.Config{TRCDNS: 10.0, Iterations: 15, Pattern: pattern.Solid0()}
	var increased, decreased float64
	for i := 0; i < b.N; i++ {
		ctrl := memctrl.NewController(dev)
		res, err := profiler.TemperatureSweep(ctrl, region, cfg, 55, 5)
		if err != nil {
			b.Fatal(err)
		}
		increased, decreased = res.IncreasedFraction, res.DecreasedFraction
	}
	b.ReportMetric(increased, "fprob-increased-fraction")
	b.ReportMetric(decreased, "fprob-decreased-fraction")
}

// BenchmarkEntropyOverTime regenerates the Section 5.4 experiment: stability
// of per-cell failure probability across repeated profiling rounds.
func BenchmarkEntropyOverTime(b *testing.B) {
	dev := benchDevice(b, 54, dram.ManufacturerA)
	region := profiler.Region{Bank: 0, RowStart: 0, RowCount: 48, WordStart: 0, WordCount: 6}
	cfg := profiler.Config{TRCDNS: 10.0, Iterations: 20, Pattern: pattern.Solid0()}
	var worstDrift float64
	for i := 0; i < b.N; i++ {
		ctrl := memctrl.NewController(dev)
		res, err := profiler.TimeStability(ctrl, region, cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		worstDrift = res.WorstDrift
	}
	b.ReportMetric(worstDrift, "worst-fprob-drift")
}

// BenchmarkTable1NIST regenerates (at reduced scale) the Table 1 experiment:
// bitstreams sampled from identified RNG cells evaluated with the NIST
// suite. The full 236×1 Mb evaluation is available via cmd/drange-figures.
func BenchmarkTable1NIST(b *testing.B) {
	st := sharedState(b)
	if len(st.cells) == 0 {
		b.Fatal("no RNG cells identified")
	}
	// Table 1 samples identified RNG cells; take the cell whose measured
	// failure probability is closest to one half, as a deployment would.
	cell := st.cells[0]
	for _, c := range st.cells {
		if abs(c.Fprob-0.5) < abs(cell.Fprob-0.5) {
			cell = c
		}
	}
	var passed, applicable int
	for i := 0; i < b.N; i++ {
		ctrl := memctrl.NewController(st.device)
		stream, err := core.SampleCell(ctrl, cell, pattern.Solid0(), 10.0, 60000)
		if err != nil {
			b.Fatal(err)
		}
		res, err := nist.RunAll(stream, nist.DefaultAlpha)
		if err != nil {
			b.Fatal(err)
		}
		passed, applicable = res.Passed()
		if passed != applicable {
			for _, r := range res.Results {
				if r.Applicable && !r.Pass {
					b.Fatalf("NIST test %s failed on RNG-cell output (p=%v)", r.Name, r.PValue)
				}
			}
		}
	}
	b.ReportMetric(float64(passed), "nist-tests-passed")
	b.ReportMetric(float64(applicable), "nist-tests-applicable")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkFigure7RNGCellDensity regenerates the Figure 7 experiment: the
// distribution of RNG cells per DRAM word across banks.
func BenchmarkFigure7RNGCellDensity(b *testing.B) {
	st := sharedState(b)
	var maxPerWord, totalCells int
	for i := 0; i < b.N; i++ {
		hists := core.RNGCellDensity(st.cells)
		maxPerWord, totalCells = 0, 0
		for _, h := range hists {
			if h.MaxCellsPerWord > maxPerWord {
				maxPerWord = h.MaxCellsPerWord
			}
			totalCells += h.TotalRNGCells
		}
	}
	b.ReportMetric(float64(maxPerWord), "max-rng-cells-per-word")
	b.ReportMetric(float64(totalCells), "rng-cells-total")
}

// BenchmarkFigure8Throughput regenerates the Figure 8 experiment: TRNG
// throughput as a function of the number of banks used, plus the 4-channel
// aggregate the paper headlines.
func BenchmarkFigure8Throughput(b *testing.B) {
	st := sharedState(b)
	for _, banks := range []int{1, 2, 4, 8} {
		if banks > len(st.selections) {
			continue
		}
		b.Run(fmt.Sprintf("banks=%d", banks), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				ctrl := memctrl.NewController(st.device)
				res, err := core.ThroughputEstimate(ctrl, st.selections, 10.0, banks, 200)
				if err != nil {
					b.Fatal(err)
				}
				mbps = res.ThroughputMbps
			}
			fourChannel, err := core.MultiChannelThroughputMbps(mbps, 4)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(mbps, "Mb/s/channel")
			b.ReportMetric(fourChannel, "Mb/s/4-channels")
		})
	}
}

// BenchmarkLatency64 regenerates the Section 7.3 latency analysis: the time
// to produce a 64-bit random value with one bank versus all banks.
func BenchmarkLatency64(b *testing.B) {
	st := sharedState(b)
	for _, banks := range []int{1, len(st.selections)} {
		b.Run(fmt.Sprintf("banks=%d", banks), func(b *testing.B) {
			var ns float64
			for i := 0; i < b.N; i++ {
				ctrl := memctrl.NewController(st.device)
				lat, err := core.LatencyEstimate(ctrl, st.selections, 10.0, banks, 64)
				if err != nil {
					b.Fatal(err)
				}
				ns = lat
			}
			b.ReportMetric(ns, "ns/64-bits")
		})
	}
}

// BenchmarkEnergyPerBit regenerates the Section 7.3 energy analysis using
// the DRAMPower-style model over the Algorithm 2 command trace.
func BenchmarkEnergyPerBit(b *testing.B) {
	st := sharedState(b)
	var nj float64
	for i := 0; i < b.N; i++ {
		ctrl := memctrl.NewController(st.device, memctrl.WithTrace())
		e, err := core.EnergyEstimate(ctrl, st.selections, 10.0, len(st.selections), 200, power.NewLPDDR4Model())
		if err != nil {
			b.Fatal(err)
		}
		nj = e
	}
	b.ReportMetric(nj, "nJ/bit")
}

// BenchmarkIdleBandwidthThroughput regenerates the Section 7.3 interference
// study: the TRNG throughput achievable using only DRAM bandwidth left idle
// by co-running workloads.
func BenchmarkIdleBandwidthThroughput(b *testing.B) {
	st := sharedState(b)
	geom := st.device.Geometry()
	ctrl := memctrl.NewController(st.device)
	standalone, err := core.ThroughputEstimate(ctrl, st.selections, 10.0, len(st.selections), 200)
	if err != nil {
		b.Fatal(err)
	}
	var avg, min, max float64
	for i := 0; i < b.N; i++ {
		sum := 0.0
		min, max = 1e18, 0
		profiles := workload.Profiles()
		for _, p := range profiles {
			reqs, err := workload.Generate(p, workload.Config{
				Banks: geom.Banks, RowsPerBank: geom.RowsPerBank, WordsPerRow: geom.WordsPerRow(),
				DurationNS: 100000, Seed: 7,
			})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := sim.ReplayWorkload(memctrl.NewController(st.device), reqs)
			if err != nil {
				b.Fatal(err)
			}
			tput, err := sim.IdleBandwidthThroughputMbps(standalone.ThroughputMbps, rep.IdleFraction)
			if err != nil {
				b.Fatal(err)
			}
			sum += tput
			if tput < min {
				min = tput
			}
			if tput > max {
				max = tput
			}
		}
		avg = sum / float64(len(profiles))
	}
	b.ReportMetric(avg, "Mb/s-avg")
	b.ReportMetric(min, "Mb/s-min")
	b.ReportMetric(max, "Mb/s-max")
}

// BenchmarkTable2Comparison regenerates Table 2: D-RaNGe versus the prior
// DRAM-based TRNG designs, reporting the throughput advantage over the best
// prior proposal.
func BenchmarkTable2Comparison(b *testing.B) {
	st := sharedState(b)
	ctrlT := memctrl.NewController(st.device, memctrl.WithTrace())
	energy, err := core.EnergyEstimate(ctrlT, st.selections, 10.0, len(st.selections), 200, power.NewLPDDR4Model())
	if err != nil {
		b.Fatal(err)
	}
	ctrlL := memctrl.NewController(st.device)
	latency, err := core.LatencyEstimate(ctrlL, st.selections, 10.0, len(st.selections), 64)
	if err != nil {
		b.Fatal(err)
	}
	ctrlP := memctrl.NewController(st.device)
	perChannel, err := core.ThroughputEstimate(ctrlP, st.selections, 10.0, len(st.selections), 200)
	if err != nil {
		b.Fatal(err)
	}
	peak, err := core.MultiChannelThroughputMbps(perChannel.ThroughputMbps, 4)
	if err != nil {
		b.Fatal(err)
	}
	var advantage float64
	for i := 0; i < b.N; i++ {
		rows, err := baselines.Table2(st.device.Timing(), power.NewLPDDR4Model(), baselines.DRangeRow(latency, energy, peak))
		if err != nil {
			b.Fatal(err)
		}
		bestPrior := 0.0
		for _, r := range rows[:len(rows)-1] {
			if r.PeakThroughputMbps > bestPrior {
				bestPrior = r.PeakThroughputMbps
			}
		}
		advantage = peak / bestPrior
	}
	b.ReportMetric(peak, "drange-peak-Mb/s")
	b.ReportMetric(advantage, "speedup-vs-best-prior")
}

// BenchmarkAblationTRCDSweep regenerates the tRCD ablation: activation
// failure yield as the activation latency sweeps across the 6–18 ns range.
func BenchmarkAblationTRCDSweep(b *testing.B) {
	dev := benchDevice(b, 12, dram.ManufacturerA)
	region := profiler.Region{Bank: 0, RowStart: 0, RowCount: 48, WordStart: 0, WordCount: 6}
	cfg := profiler.Config{TRCDNS: 10.0, Iterations: 10, Pattern: pattern.Solid0()}
	var atSix, atEighteen int
	for i := 0; i < b.N; i++ {
		ctrl := memctrl.NewController(dev)
		points, err := profiler.TRCDSweep(ctrl, region, cfg, []float64{6, 10, 13, 18})
		if err != nil {
			b.Fatal(err)
		}
		atSix = points[0].FailingCells
		atEighteen = points[len(points)-1].FailingCells
	}
	b.ReportMetric(float64(atSix), "failing-cells@6ns")
	b.ReportMetric(float64(atEighteen), "failing-cells@18ns")
}

// BenchmarkAblationPostprocessing quantifies the throughput cost of
// post-processing (Section 2.2): D-RaNGe does not need it, but applying it
// anyway shows the up-to-80% loss the paper cites.
func BenchmarkAblationPostprocessing(b *testing.B) {
	st := sharedState(b)
	ctrl := memctrl.NewController(st.device)
	trng, err := core.NewTRNG(ctrl, st.selections, core.DefaultTRNGConfig("A"))
	if err != nil {
		b.Fatal(err)
	}
	raw, err := trng.ReadBits(40000)
	if err != nil {
		b.Fatal(err)
	}
	var vnCost float64
	for i := 0; i < b.N; i++ {
		cost, err := postproc.ThroughputCost(postproc.VonNeumann{}, raw)
		if err != nil {
			b.Fatal(err)
		}
		vnCost = cost
	}
	bias, err := entropy.Bias(raw)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(vnCost, "von-neumann-throughput-cost")
	b.ReportMetric(bias, "raw-output-bias")
}

// BenchmarkEngineShardScaling measures the sharded harvesting engine's
// aggregate throughput in simulated DRAM time as the shard count grows. Each
// shard is an independent channel/rank controller over a disjoint subset of
// the selected banks, so the aggregate rate reproduces the paper's claim
// that D-RaNGe throughput scales with the number of banks and channels
// sampled in parallel: at 4 shards the engine sustains over twice the
// single-shard TRNG rate (the enforced regression lives in
// internal/core/engine_test.go).
func BenchmarkEngineShardScaling(b *testing.B) {
	st := sharedState(b)
	for _, shards := range []int{1, 2, 4} {
		if shards > len(st.selections) {
			continue
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var mbps, lat float64
			for i := 0; i < b.N; i++ {
				eng, err := core.NewEngine(context.Background(), st.device, st.selections,
					core.EngineConfig{Shards: shards, TRNG: core.DefaultTRNGConfig("A")})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.ReadBits(4096 * eng.Shards()); err != nil {
					eng.Close()
					b.Fatal(err)
				}
				s := eng.Stats()
				eng.Close()
				mbps, lat = s.AggregateThroughputMbps, s.Latency64NS
			}
			b.ReportMetric(mbps, "simulated-Mb/s")
			b.ReportMetric(lat, "ns/64-bits")
		})
	}
}

// BenchmarkEngineReadThroughput measures the simulator-host throughput of
// the engine's thread-safe Read path (bytes per wall-clock second on the
// simulation host), the sharded counterpart of BenchmarkTRNGReadThroughput.
func BenchmarkEngineReadThroughput(b *testing.B) {
	st := sharedState(b)
	eng, err := core.NewEngine(context.Background(), st.device, st.selections,
		core.EngineConfig{Shards: 4, TRNG: core.DefaultTRNGConfig("A")})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	buf := make([]byte, 1024)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPoolProfiles lazily characterizes the small deterministic device
// fleet BenchmarkPoolScaling multiplexes.
var (
	benchPoolOnce sync.Once
	benchPoolProf []*drange.Profile
	benchPoolErr  error
)

func poolProfiles(b *testing.B, n int) []*drange.Profile {
	b.Helper()
	benchPoolOnce.Do(func() {
		for serial := uint64(201); serial < 201+4; serial++ {
			p, err := drange.Characterize(context.Background(),
				drange.WithManufacturer("A"),
				drange.WithSerial(serial),
				drange.WithDeterministic(true),
				drange.WithGeometry(drange.Geometry{
					Banks: 8, RowsPerBank: 256, ColsPerRow: 4096, SubarrayRows: 128, WordBits: 256,
				}),
				drange.WithProfilingRegion(48, 8, 8),
				drange.WithSamples(300),
				drange.WithTolerance(0.4),
				drange.WithMaxBiasDelta(0.03),
				drange.WithScreenIterations(25),
			)
			if err != nil {
				benchPoolErr = err
				return
			}
			benchPoolProf = append(benchPoolProf, p)
		}
	})
	if benchPoolErr != nil {
		b.Fatal(benchPoolErr)
	}
	return benchPoolProf[:n]
}

// BenchmarkPoolScaling measures the multi-device Pool's aggregate throughput
// in simulated DRAM time as the device count grows. Each device is an
// independent channel hierarchy with its own sharded engine, so the
// aggregate rate is the sum of the member rates — the fleet-scale extension
// of the paper's multi-channel scaling (a 4-device pool sustains >= 3x the
// single-device rate; the enforced regression lives in
// drange/pool_test.go). bytes/sec reports the wall-clock simulation-host
// rate.
func BenchmarkPoolScaling(b *testing.B) {
	for _, devices := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("devices=%d", devices), func(b *testing.B) {
			profiles := poolProfiles(b, devices)
			buf := make([]byte, 4096)
			var mbps, lat float64
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool, err := drange.OpenPool(context.Background(), profiles)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pool.Read(buf); err != nil {
					pool.Close()
					b.Fatal(err)
				}
				st := pool.Stats()
				pool.Close()
				mbps, lat = st.AggregateThroughputMbps, st.Latency64NS
			}
			b.ReportMetric(mbps, "simulated-Mb/s")
			b.ReportMetric(lat, "ns/64-bits")
		})
	}
}

// BenchmarkTRNGReadThroughput measures the simulator-host throughput of the
// generator's Read path (bytes of random data per wall-clock second on the
// simulation host — not the DRAM-timing throughput of Figure 8).
func BenchmarkTRNGReadThroughput(b *testing.B) {
	st := sharedState(b)
	ctrl := memctrl.NewController(st.device)
	trng, err := core.NewTRNG(ctrl, st.selections, core.DefaultTRNGConfig("A"))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1024)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trng.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}
