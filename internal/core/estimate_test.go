package core

import (
	"slices"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/pattern"
	"repro/internal/power"
)

// selectionsForEstimation builds selections across several banks of a test
// device; estimation only needs plausible word choices, not real RNG cells,
// so it synthesises selections with a fixed bit count when identification
// yields too few banks.
func selectionsForEstimation(t *testing.T, ctrl *memctrl.Controller, banks, bitsPerBank int) []BankSelection {
	t.Helper()
	sels := make([]BankSelection, 0, banks)
	for b := 0; b < banks; b++ {
		cells1 := make([]RNGCell, 0, bitsPerBank/2+1)
		cells2 := make([]RNGCell, 0, bitsPerBank/2)
		for i := 0; i < bitsPerBank; i++ {
			c := RNGCell{Fprob: 0.5}
			if i%2 == 0 {
				c.Addr.Bank, c.Addr.Row, c.Addr.Col = b, 10, i
				c.WordIdx = 0
				cells1 = append(cells1, c)
			} else {
				c.Addr.Bank, c.Addr.Row, c.Addr.Col = b, 20, 256+i
				c.WordIdx = 1
				cells2 = append(cells2, c)
			}
		}
		sels = append(sels, BankSelection{
			Bank:  b,
			Word1: WordRef{Bank: b, Row: 10, WordIdx: 0, RNGCells: cells1},
			Word2: WordRef{Bank: b, Row: 20, WordIdx: 1, RNGCells: cells2},
		})
	}
	return sels
}

func TestThroughputEstimateBasic(t *testing.T) {
	ctrl := newController(t, 207)
	res, err := ThroughputEstimate(ctrl, selectionsForEstimation(t, ctrl, 1, 2), 10.0, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Banks != 1 || res.Iterations != 50 || res.BitsPerIteration != 2 || res.ReadsPerIteration != 2 {
		t.Errorf("result metadata wrong: %+v", res)
	}
	if res.NSPerIteration <= 0 || res.TotalNS <= 0 || res.ThroughputMbps <= 0 {
		t.Errorf("non-positive timing: %+v", res)
	}
	// One iteration on one bank is two row cycles: it cannot be faster than
	// 2×tRC = 120 ns, nor absurdly slow.
	if res.NSPerIteration < 100 || res.NSPerIteration > 1000 {
		t.Errorf("per-iteration time %v ns outside plausible range", res.NSPerIteration)
	}
	if ctrl.EffectiveTRCD() != ctrl.Params().TRCD {
		t.Error("reduced tRCD left programmed after the estimate")
	}
}

func TestThroughputEstimateScalesWithBits(t *testing.T) {
	// 2 bits per bank is one RNG cell per word; 8 bits is four per word.
	one, err := ThroughputEstimate(newController(t, 208), selectionsForEstimation(t, nil, 4, 2), 10.0, 4, 30)
	if err != nil {
		t.Fatal(err)
	}
	four, err := ThroughputEstimate(newController(t, 209), selectionsForEstimation(t, nil, 4, 8), 10.0, 4, 30)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := four.ThroughputMbps / one.ThroughputMbps; ratio < 3.5 || ratio > 4.5 {
		t.Errorf("4 RNG cells per word should give ~4x the throughput of 1, got %vx", ratio)
	}
}

// TestThroughputEstimateRestoresData checks that the estimate's loop restores
// every selected word after every sample: the words hold the data pattern
// they held before the estimate, although reduced-tRCD reads corrupt the
// array.
func TestThroughputEstimateRestoresData(t *testing.T) {
	ctrl := newController(t, 210)
	dev := ctrl.Device()
	g := dev.Geometry()
	nw := g.WordBits / 64
	sels := selectionsForEstimation(t, ctrl, 4, 8)
	words := func() [][]uint64 {
		var out [][]uint64
		for _, s := range sels {
			for _, w := range []WordRef{s.Word1, s.Word2} {
				raw, err := dev.ReadRowRaw(s.Bank, w.Row)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, slices.Clone(raw[w.WordIdx*nw:(w.WordIdx+1)*nw]))
			}
		}
		return out
	}
	pat := pattern.BestFor("A")
	for _, s := range sels {
		for _, row := range []int{s.Word1.Row, s.Word2.Row} {
			data, err := pat.FillRow(row, g.ColsPerRow)
			if err != nil {
				t.Fatal(err)
			}
			if err := dev.WriteRow(s.Bank, row, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := words()
	if _, err := ThroughputEstimate(ctrl, sels, 8.0, len(sels), 200); err != nil {
		t.Fatal(err)
	}
	after := words()
	for i := range before {
		if !slices.Equal(before[i], after[i]) {
			t.Errorf("selected word %d (bank %d) = %x after the estimate, want %x", i, sels[i/2].Bank, after[i], before[i])
		}
	}
}

func TestThroughputEstimateScalesWithBanks(t *testing.T) {
	sels := selectionsForEstimation(t, nil, 4, 2)
	var prev float64
	for _, banks := range []int{1, 2, 4} {
		ctrl := newController(t, 200)
		res, err := ThroughputEstimate(ctrl, sels, 10.0, banks, 40)
		if err != nil {
			t.Fatal(err)
		}
		if res.ThroughputMbps <= prev {
			t.Errorf("throughput with %d banks (%v Mb/s) did not exceed %v", banks, res.ThroughputMbps, prev)
		}
		prev = res.ThroughputMbps
	}
}

// TestThroughputEstimateScalesToEightBanks extends the bank scaling to a
// full 8-bank DDR3 rank: the loop still overlaps activations when it
// doubles from 4 to 8 banks.
func TestThroughputEstimateScalesToEightBanks(t *testing.T) {
	g := testGeometry()
	g.Banks = 8
	sels := selectionsForEstimation(t, nil, 8, 2)
	var rates [2]float64
	for i, banks := range []int{4, 8} {
		res, err := ThroughputEstimate(newControllerWithGeometry(t, 200, g), sels, 10.0, banks, 40)
		if err != nil {
			t.Fatal(err)
		}
		rates[i] = res.ThroughputMbps
	}
	if rates[1] <= rates[0] {
		t.Errorf("throughput with 8 banks (%v Mb/s) did not exceed 4 banks (%v Mb/s)", rates[1], rates[0])
	}
}

func TestThroughputEstimateValidation(t *testing.T) {
	ctrl := newController(t, 201)
	sels := selectionsForEstimation(t, ctrl, 2, 2)
	if _, err := ThroughputEstimate(ctrl, sels, 10, 0, 10); err == nil {
		t.Error("zero banks accepted")
	}
	if _, err := ThroughputEstimate(ctrl, sels, 10, 5, 10); err == nil {
		t.Error("more banks than selections accepted")
	}
}

// TestThroughputEstimateArgumentValidation checks the rejections of the
// loop's own arguments, and that a rejected estimate touches no timing.
func TestThroughputEstimateArgumentValidation(t *testing.T) {
	ctrl := newController(t, 201)
	sels := selectionsForEstimation(t, ctrl, 2, 2)
	if _, err := ThroughputEstimate(ctrl, nil, 10, 1, 1); err == nil {
		t.Error("empty selection accepted")
	}
	if _, err := ThroughputEstimate(ctrl, sels, 10, 1, 0); err == nil {
		t.Error("zero iterations accepted")
	}
	for _, trcd := range []float64{0, 99} {
		if _, err := ThroughputEstimate(ctrl, sels, trcd, 1, 1); err == nil {
			t.Errorf("tRCD %v ns accepted", trcd)
		}
	}
	if ctrl.EffectiveTRCD() != ctrl.Params().TRCD || ctrl.Now() != 0 {
		t.Errorf("rejected estimates left tRCD %v ns or issued commands (clock %d)", ctrl.EffectiveTRCD(), ctrl.Now())
	}
}

// TestThroughputEstimateSelectionValidation checks that the estimate
// accepts a well-formed selection and rejects one that names a bank, row or
// word outside the device, reuses one row for both words, or has no RNG
// cells.
func TestThroughputEstimateSelectionValidation(t *testing.T) {
	ctrl := newController(t, 201)
	if _, err := ThroughputEstimate(newController(t, 201), selectionsForEstimation(t, nil, 1, 2), 10, 1, 1); err != nil {
		t.Errorf("valid selection rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*BankSelection)
	}{
		{"negative bank", func(s *BankSelection) { s.Bank = -1 }},
		{"same-row selection", func(s *BankSelection) { s.Word2.Row = s.Word1.Row }},
		{"negative row", func(s *BankSelection) { s.Word1.Row = -1 }},
		{"row outside the geometry", func(s *BankSelection) { s.Word1.Row = 1 << 30 }},
		{"word outside the geometry", func(s *BankSelection) { s.Word2.WordIdx = 1 << 20 }},
		{"selection without RNG cells", func(s *BankSelection) { s.Word1.RNGCells, s.Word2.RNGCells = nil, nil }},
	}
	for _, c := range cases {
		sels := selectionsForEstimation(t, nil, 1, 2)
		c.mutate(&sels[0])
		if _, err := ThroughputEstimate(ctrl, sels, 10, 1, 1); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if ctrl.EffectiveTRCD() != ctrl.Params().TRCD || ctrl.Now() != 0 {
		t.Errorf("rejected estimates left tRCD %v ns or issued commands (clock %d)", ctrl.EffectiveTRCD(), ctrl.Now())
	}
}

func TestMultiChannelThroughput(t *testing.T) {
	got, err := MultiChannelThroughputMbps(108.9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4*108.9 {
		t.Errorf("MultiChannelThroughputMbps = %v, want %v", got, 4*108.9)
	}
	if _, err := MultiChannelThroughputMbps(1, 0); err == nil {
		t.Error("zero channels accepted")
	}
	if _, err := MultiChannelThroughputMbps(-1, 1); err == nil {
		t.Error("negative throughput accepted")
	}
}

func TestLatencyEstimateOrdering(t *testing.T) {
	sels := selectionsForEstimation(t, nil, 4, 2)
	slowCtrl := newController(t, 202)
	slow, err := LatencyEstimate(slowCtrl, sels[:1], 10.0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	fastCtrl := newController(t, 203)
	fast, err := LatencyEstimate(fastCtrl, sels, 10.0, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if fast >= slow {
		t.Errorf("4-bank latency (%v ns) should beat 1-bank latency (%v ns)", fast, slow)
	}
	if _, err := LatencyEstimate(fastCtrl, sels, 10, 0, 64); err == nil {
		t.Error("zero banks accepted")
	}
	if _, err := LatencyEstimate(fastCtrl, sels, 10, 4, 0); err == nil {
		t.Error("zero target bits accepted")
	}
	if _, err := LatencyEstimate(fastCtrl, selectionsForEstimation(t, nil, 1, 0), 10, 1, 64); err == nil {
		t.Error("selection without RNG cells accepted")
	}
}

// TestLatencyEstimateBounds compares the two extremes of Section 7.3 on one
// channel: 8 banks with four RNG cells per word against one bank with one
// RNG cell per word.
func TestLatencyEstimateBounds(t *testing.T) {
	g := testGeometry()
	g.Banks = 8
	fast, err := LatencyEstimate(newControllerWithGeometry(t, 211, g), selectionsForEstimation(t, nil, 8, 8), 10.0, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := LatencyEstimate(newController(t, 212), selectionsForEstimation(t, nil, 1, 2), 10.0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if fast <= 0 || fast >= slow {
		t.Errorf("8 banks x 4 cells latency %v ns should be positive and beat 1 bank x 1 cell (%v ns)", fast, slow)
	}
}

func TestEnergyEstimateInNanojouleRange(t *testing.T) {
	ctrl := newController(t, 204, memctrl.WithTrace())
	sels := selectionsForEstimation(t, ctrl, 4, 2)
	nj, err := EnergyEstimate(ctrl, sels, 10.0, 4, 100, power.NewLPDDR4Model())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports ~4.4 nJ/bit; the model should land within an order
	// of magnitude.
	if nj < 0.4 || nj > 44 {
		t.Errorf("energy per bit = %v nJ, want within [0.4, 44] (paper: 4.4 nJ/bit)", nj)
	}
}

func TestEnergyEstimateRequiresTrace(t *testing.T) {
	ctrl := newController(t, 205) // no trace
	sels := selectionsForEstimation(t, ctrl, 2, 2)
	if _, err := EnergyEstimate(ctrl, sels, 10.0, 2, 10, power.NewLPDDR4Model()); err == nil {
		t.Error("controller without trace accepted")
	}
	ctrlT := newController(t, 206, memctrl.WithTrace())
	if _, err := EnergyEstimate(ctrlT, sels, 10.0, 0, 10, power.NewLPDDR4Model()); err == nil {
		t.Error("zero banks accepted")
	}
}
