package baselines

import (
	"math"
	"testing"

	"repro/internal/dram"
	"repro/internal/power"
	"repro/internal/timing"
)

func testDevice(t *testing.T) *dram.Device {
	t.Helper()
	d, err := dram.NewDevice(dram.Config{Serial: 9, Manufacturer: dram.ManufacturerA, Noise: dram.NewDeterministicNoise(9)})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCommandScheduleMetricsMatchPaperScaling(t *testing.T) {
	m, err := NewCommandScheduleTRNG().Metrics()
	if err != nil {
		t.Fatal(err)
	}
	// The paper computes a theoretical maximum of ~3.40 Mb/s for Pyo+ on a
	// 5 GHz, 4-channel system.
	if m.PeakThroughputMbps < 3.0 || m.PeakThroughputMbps > 4.0 {
		t.Errorf("Pyo+ peak throughput = %v Mb/s, want ~3.4", m.PeakThroughputMbps)
	}
	// 64-bit latency of ~18 µs per the paper.
	if m.Latency64NS < 10000 || m.Latency64NS > 80000 {
		t.Errorf("Pyo+ 64-bit latency = %v ns, want on the order of 18 µs", m.Latency64NS)
	}
	if m.TrueRandom {
		t.Error("command scheduling must not be classified as truly random")
	}
	if !m.StreamingCapable {
		t.Error("command scheduling is streaming-capable")
	}
	bad := CommandScheduleTRNG{}
	if _, err := bad.Metrics(); err == nil {
		t.Error("zeroed configuration accepted")
	}
}

func TestCommandScheduleHarvestDeterministic(t *testing.T) {
	dev := testDevice(t)
	c := NewCommandScheduleTRNG()
	a, err := c.Harvest(dev, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Harvest(dev, 1000)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if !same {
		t.Error("command-schedule harvest should be reproducible given the same system state (that is the paper's criticism)")
	}
	if _, err := c.Harvest(nil, 10); err == nil {
		t.Error("nil device accepted")
	}
	if _, err := c.Harvest(dev, 0); err == nil {
		t.Error("zero bits accepted")
	}
	if _, err := c.Harvest(dev, math.MaxInt); err == nil {
		t.Error("request beyond device capacity accepted (would preallocate 1 TiB)")
	}
}

func TestRetentionMetricsOrdersOfMagnitude(t *testing.T) {
	p := timing.NewLPDDR4()
	m, err := NewRetentionTRNG().Metrics(p, power.NewLPDDR4Model())
	if err != nil {
		t.Fatal(err)
	}
	// Table 2: ~0.05 Mb/s peak throughput, 40 s latency, mJ/bit energy.
	if m.PeakThroughputMbps > 0.1 {
		t.Errorf("retention throughput = %v Mb/s, want ≤ 0.1", m.PeakThroughputMbps)
	}
	if m.Latency64NS < 1e9 {
		t.Errorf("retention latency = %v ns, want tens of seconds", m.Latency64NS)
	}
	if m.EnergyPerBitNJ < 1e5 {
		t.Errorf("retention energy = %v nJ/bit, want in the mJ/bit range", m.EnergyPerBitNJ)
	}
	if !m.TrueRandom || !m.StreamingCapable {
		t.Error("retention TRNG is true-random and streaming-capable")
	}
	bad := RetentionTRNG{}
	if _, err := bad.Metrics(p, power.NewLPDDR4Model()); err == nil {
		t.Error("zeroed configuration accepted")
	}
}

func TestRetentionHarvest(t *testing.T) {
	dev := testDevice(t)
	r := NewRetentionTRNG()
	bits, err := r.Harvest(dev, dram.NewDeterministicNoise(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) != r.OutputBits {
		t.Fatalf("harvested %d bits, want %d", len(bits), r.OutputBits)
	}
	ones := 0
	for _, b := range bits {
		if b > 1 {
			t.Fatal("invalid bit value")
		}
		ones += int(b)
	}
	// A SHA-256-conditioned output should not be grossly biased.
	if ones < r.OutputBits/4 || ones > 3*r.OutputBits/4 {
		t.Errorf("retention output has %d/%d ones; conditioning should balance it", ones, r.OutputBits)
	}
	if _, err := r.Harvest(nil, nil); err == nil {
		t.Error("nil device accepted")
	}
}

func TestStartupMetrics(t *testing.T) {
	p := timing.NewLPDDR4()
	m, err := NewStartupTRNG().Metrics(p, power.NewLPDDR4Model())
	if err != nil {
		t.Fatal(err)
	}
	if m.StreamingCapable {
		t.Error("startup-value TRNG must not be streaming-capable")
	}
	if m.PeakThroughputMbps != 0 {
		t.Error("startup-value TRNG has no continuous throughput")
	}
	if m.Latency64NS < 30 || m.Latency64NS > 200 {
		t.Errorf("startup read latency = %v ns, want ~60 ns", m.Latency64NS)
	}
	if m.EnergyPerBitNJ <= 0 || m.EnergyPerBitNJ > 10 {
		t.Errorf("startup energy = %v nJ/bit, want sub-nJ to a few nJ", m.EnergyPerBitNJ)
	}
	bad := StartupTRNG{}
	if _, err := bad.Metrics(p, power.NewLPDDR4Model()); err == nil {
		t.Error("zeroed configuration accepted")
	}
}

func TestStartupHarvestRepeatsWithoutPowerCycle(t *testing.T) {
	dev := testDevice(t)
	s := NewStartupTRNG()
	a, err := s.Harvest(dev, 4096)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Harvest(dev, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("startup harvest changed without a power cycle")
		}
	}
	if _, err := s.Harvest(dev, 0); err == nil {
		t.Error("zero bits accepted")
	}
	if _, err := s.Harvest(nil, 10); err == nil {
		t.Error("nil device accepted")
	}
	if _, err := s.Harvest(dev, math.MaxInt); err == nil {
		t.Error("request beyond device capacity accepted")
	}
}

func TestTable2DRangeWinsByOrdersOfMagnitude(t *testing.T) {
	p := timing.NewLPDDR4()
	m := power.NewLPDDR4Model()
	drange := DRangeRow(960, 4.4, 717.4)
	rows, err := Table2(p, m, drange)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("Table 2 has %d rows, want 5", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Name != drange.Name {
		t.Fatalf("last row is %q, want D-RaNGe", last.Name)
	}
	bestPrior := 0.0
	for _, r := range rows[:len(rows)-1] {
		if r.PeakThroughputMbps > bestPrior {
			bestPrior = r.PeakThroughputMbps
		}
	}
	if bestPrior <= 0 {
		t.Fatal("no prior design has positive throughput")
	}
	ratio := last.PeakThroughputMbps / bestPrior
	if ratio < 100 {
		t.Errorf("D-RaNGe outperforms the best prior DRAM TRNG by %.0fx, want >100x (paper: 211x)", ratio)
	}
}
