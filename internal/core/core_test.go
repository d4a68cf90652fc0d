package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/dram"
	"repro/internal/entropy"
	"repro/internal/memctrl"
	"repro/internal/pattern"
	"repro/internal/profiler"
)

// testGeometry keeps identification fast in unit tests.
func testGeometry() dram.Geometry {
	return dram.Geometry{
		Banks:        4,
		RowsPerBank:  128,
		ColsPerRow:   2048,
		SubarrayRows: 64,
		WordBits:     256,
	}
}

func testProfile() dram.Profile {
	p := dram.MustProfile(dram.ManufacturerA)
	p.WeakColumnDensity = 1.0 / 12.0
	p.SubarrayRows = 64
	return p
}

func newController(t *testing.T, seed uint64, opts ...memctrl.Option) *memctrl.Controller {
	t.Helper()
	return newControllerWithGeometry(t, seed, testGeometry(), opts...)
}

func newControllerWithGeometry(t *testing.T, seed uint64, g dram.Geometry, opts ...memctrl.Option) *memctrl.Controller {
	t.Helper()
	prof := testProfile()
	dev, err := dram.NewDevice(dram.Config{
		Serial:   seed,
		Profile:  &prof,
		Geometry: g,
		Noise:    dram.NewDeterministicNoise(seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	return memctrl.NewController(dev, opts...)
}

func testRegion(bank int) profiler.Region {
	return profiler.Region{Bank: bank, RowStart: 0, RowCount: 48, WordStart: 0, WordCount: 6}
}

// quickIdentifyConfig trades the paper's strict ±10% criterion over 1000
// samples for a looser tolerance over fewer samples so unit tests run
// quickly; the statistical structure of the pipeline is unchanged.
func quickIdentifyConfig() IdentifyConfig {
	cfg := DefaultIdentifyConfig("A")
	cfg.ScreenIterations = 30
	cfg.Samples = 240
	cfg.Tolerance = 0.6
	return cfg
}

// identifyForTest runs identification over a couple of banks and requires at
// least one RNG cell.
func identifyForTest(t *testing.T, ctrl *memctrl.Controller, banks int) []RNGCell {
	t.Helper()
	var all []RNGCell
	for b := 0; b < banks; b++ {
		cells, err := IdentifyRNGCells(ctrl, testRegion(b), quickIdentifyConfig())
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, cells...)
	}
	if len(all) == 0 {
		t.Fatal("identification found no RNG cells in the test device")
	}
	return all
}

func TestDefaultIdentifyConfig(t *testing.T) {
	cfg := DefaultIdentifyConfig("B")
	if cfg.Samples != 1000 || cfg.SymbolBits != 3 || cfg.Tolerance != 0.10 {
		t.Errorf("default identify config = %+v, want paper parameters", cfg)
	}
	if cfg.Pattern != pattern.Checkered0() {
		t.Errorf("manufacturer B pattern = %v, want CHECKERED0", cfg.Pattern)
	}
}

func TestIdentifyRNGCellsFindsMidProbabilityCells(t *testing.T) {
	ctrl := newController(t, 100)
	cells := identifyForTest(t, ctrl, 1)
	for _, c := range cells {
		if c.Fprob < 0.2 || c.Fprob > 0.8 {
			t.Errorf("RNG cell %+v has Fprob %v; identified cells should sit near 50%%", c.Addr, c.Fprob)
		}
		if c.SymbolEntropy < 2.5 {
			t.Errorf("RNG cell %+v has 3-bit symbol entropy %v, want near 3", c.Addr, c.SymbolEntropy)
		}
		if c.WordIdx != c.Addr.Col/testGeometry().WordBits {
			t.Errorf("RNG cell %+v has inconsistent word index %d", c.Addr, c.WordIdx)
		}
	}
	// The controller must be restored to default timing.
	if ctrl.EffectiveTRCD() != ctrl.Params().TRCD {
		t.Error("identification left reduced tRCD programmed")
	}
}

func TestIdentifyRNGCellsValidation(t *testing.T) {
	ctrl := newController(t, 101)
	cfg := quickIdentifyConfig()
	cfg.Samples = 2
	if _, err := IdentifyRNGCells(ctrl, testRegion(0), cfg); err == nil {
		t.Error("too-few samples accepted")
	}
	cfg = quickIdentifyConfig()
	cfg.TRCDNS = 99
	if _, err := IdentifyRNGCells(ctrl, testRegion(0), cfg); err == nil {
		t.Error("tRCD above default accepted")
	}
	cfg = quickIdentifyConfig()
	cfg.Tolerance = 0
	if _, err := IdentifyRNGCells(ctrl, testRegion(0), cfg); err == nil {
		t.Error("zero tolerance accepted")
	}
	if _, err := IdentifyRNGCells(ctrl, profiler.Region{Bank: 99, RowCount: 1, WordCount: 1}, quickIdentifyConfig()); err == nil {
		t.Error("bad region accepted")
	}
}

func TestIdentifiedCellStreamsPassUniformityByConstruction(t *testing.T) {
	// Re-sample an identified cell and check the fresh stream is close to
	// unbiased: identification must select cells whose randomness persists.
	ctrl := newController(t, 102)
	cells := identifyForTest(t, ctrl, 1)
	cell := cells[0]
	stream, err := SampleCell(ctrl, cell, pattern.Solid0(), 10.0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	bias, err := entropy.Bias(stream)
	if err != nil {
		t.Fatal(err)
	}
	if bias < 0.3 || bias > 0.7 {
		t.Errorf("re-sampled RNG cell bias = %v, want near 0.5", bias)
	}
}

func TestGroupByWordAndSelection(t *testing.T) {
	ctrl := newController(t, 103)
	cells := identifyForTest(t, ctrl, 2)
	words := GroupByWord(cells)
	if len(words) == 0 {
		t.Fatal("no words grouped")
	}
	total := 0
	for _, w := range words {
		total += len(w.RNGCells)
		for _, c := range w.RNGCells {
			if c.Addr.Bank != w.Bank || c.Addr.Row != w.Row || c.WordIdx != w.WordIdx {
				t.Errorf("cell %+v grouped into wrong word %+v", c.Addr, w)
			}
		}
	}
	if total != len(cells) {
		t.Errorf("grouping lost cells: %d vs %d", total, len(cells))
	}

	sels, err := SelectBankWords(cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sels {
		if s.Word1.Row == s.Word2.Row {
			t.Errorf("bank %d selection uses the same row twice", s.Bank)
		}
		if s.Bits() <= 0 {
			t.Errorf("bank %d selection has no bits", s.Bank)
		}
		if len(s.Word1.RNGCells) < len(s.Word2.RNGCells) {
			t.Errorf("bank %d: word1 should be the denser word", s.Bank)
		}
	}
	// Selections must be sorted by descending data rate.
	for i := 1; i < len(sels); i++ {
		if sels[i].Bits() > sels[i-1].Bits() {
			t.Error("selections not sorted by descending bits")
		}
	}
	if _, err := SelectBankWords(nil); err == nil {
		t.Error("empty cell list accepted")
	}
}

func TestRNGCellDensityHistogram(t *testing.T) {
	ctrl := newController(t, 104)
	cells := identifyForTest(t, ctrl, 2)
	hists := RNGCellDensity(cells)
	if len(hists) == 0 {
		t.Fatal("no histograms")
	}
	for _, h := range hists {
		sum := 0
		for n, words := range h.WordsWithNCells {
			if n <= 0 || words <= 0 {
				t.Errorf("bank %d histogram has non-positive entry %d:%d", h.Bank, n, words)
			}
			sum += n * words
			if n > h.MaxCellsPerWord {
				t.Errorf("bank %d: entry %d exceeds MaxCellsPerWord %d", h.Bank, n, h.MaxCellsPerWord)
			}
		}
		if sum != h.TotalRNGCells {
			t.Errorf("bank %d: histogram total %d != TotalRNGCells %d", h.Bank, sum, h.TotalRNGCells)
		}
		if got := len(CellsForBank(cells, h.Bank)); got != h.TotalRNGCells {
			t.Errorf("bank %d: CellsForBank found %d cells, histogram says %d", h.Bank, got, h.TotalRNGCells)
		}
	}
}

func TestTRNGProducesUnbiasedBytes(t *testing.T) {
	ctrl := newController(t, 105)
	cells := identifyForTest(t, ctrl, 2)
	sels, err := SelectBankWords(cells)
	if err != nil {
		t.Fatal(err)
	}
	trng, err := NewTRNG(ctrl, sels, DefaultTRNGConfig("A"))
	if err != nil {
		t.Fatal(err)
	}
	if trng.Banks() == 0 || trng.BitsPerIteration() == 0 {
		t.Fatalf("TRNG misconfigured: banks=%d bits/iter=%d", trng.Banks(), trng.BitsPerIteration())
	}

	buf := make([]byte, 2048)
	n, err := trng.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("short read: %d", n)
	}
	bits := entropy.BytesToBits(buf)
	bias, err := entropy.Bias(bits)
	if err != nil {
		t.Fatal(err)
	}
	if bias < 0.45 || bias > 0.55 {
		t.Errorf("TRNG output bias = %v, want ~0.5", bias)
	}
	sc, err := entropy.SerialCorrelation(bits)
	if err != nil {
		t.Fatal(err)
	}
	if sc > 0.1 || sc < -0.1 {
		t.Errorf("TRNG serial correlation = %v, want ~0", sc)
	}
	if trng.BitsGenerated() < int64(len(buf)*8) {
		t.Errorf("BitsGenerated = %d, want at least %d", trng.BitsGenerated(), len(buf)*8)
	}
	// Timing registers restored after reads.
	if ctrl.EffectiveTRCD() != ctrl.Params().TRCD {
		t.Error("TRNG left reduced tRCD programmed")
	}
}

func TestTRNGReadBitsAndUint64(t *testing.T) {
	ctrl := newController(t, 106)
	cells := identifyForTest(t, ctrl, 1)
	sels, err := SelectBankWords(cells)
	if err != nil {
		t.Fatal(err)
	}
	trng, err := NewTRNG(ctrl, sels, DefaultTRNGConfig("A"))
	if err != nil {
		t.Fatal(err)
	}
	bits, err := trng.ReadBits(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) != 100 {
		t.Fatalf("got %d bits, want 100", len(bits))
	}
	for _, b := range bits {
		if b > 1 {
			t.Fatalf("bit value %d", b)
		}
	}
	if _, err := trng.ReadBits(0); err == nil {
		t.Error("zero bit request accepted")
	}
	a, err := trng.Uint64()
	if err != nil {
		t.Fatal(err)
	}
	b, err := trng.Uint64()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("two consecutive Uint64 values identical; extremely unlikely for a TRNG")
	}
	if n, err := trng.Read(nil); n != 0 || err != nil {
		t.Errorf("empty read = (%d, %v), want (0, nil)", n, err)
	}
}

func TestTRNGRestoresDataPattern(t *testing.T) {
	ctrl := newController(t, 107)
	cells := identifyForTest(t, ctrl, 4)
	sels, err := SelectBankWords(cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) < 2 {
		t.Fatalf("test device yielded %d bank selections, need at least 2", len(sels))
	}
	cfg := DefaultTRNGConfig("A")
	trng, err := NewTRNG(ctrl, sels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trng.ReadBits(500); err != nil {
		t.Fatal(err)
	}
	// After generation, the selected words must hold the data pattern again
	// (Algorithm 2 restores the original value after every sample).
	g := ctrl.Device().Geometry()
	nw := g.WordBits / 64
	for _, s := range sels {
		for _, w := range []WordRef{s.Word1, s.Word2} {
			raw, err := ctrl.Device().ReadRowRaw(s.Bank, w.Row)
			if err != nil {
				t.Fatal(err)
			}
			expected, err := cfg.Pattern.FillRow(w.Row, g.ColsPerRow)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < nw; u++ {
				if raw[w.WordIdx*nw+u] != expected[w.WordIdx*nw+u] {
					t.Errorf("bank %d row %d word %d not restored after generation", s.Bank, w.Row, w.WordIdx)
				}
			}
		}
	}
}

// TestTRNGSimulatedClockPinned pins the simulated time of a fixed read. The
// TRNG issues each half-iteration in bank phases, so the banks' activations
// overlap; a bank-serial issue order takes about twice the cycles for the
// same bits. The bytes are pinned too: each bank draws its own noise stream
// and sees its own commands in the same order either way.
func TestTRNGSimulatedClockPinned(t *testing.T) {
	dev, sels := engineSetup(t, 213, dram.NewDeterministicBankNoise(213), 4)
	if len(sels) < 4 {
		t.Fatalf("test device yielded %d bank selections, need 4", len(sels))
	}
	ctrl := memctrl.NewController(dev)
	trng, err := NewTRNG(ctrl, sels, DefaultTRNGConfig("A"))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if err := trng.ReadPacked(buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	const wantCycles, wantBits = 57946, 8208
	const wantDigest = "4c227733035251ccbe5f41f072c7b5290eb673b3bc6430792fd45d9958e1f0a1"
	if ctrl.Now() != wantCycles || trng.BitsGenerated() != wantBits {
		t.Errorf("after a 1 KiB read: clock %d cycles, %d bits; want %d cycles, %d bits", ctrl.Now(), trng.BitsGenerated(), wantCycles, wantBits)
	}
	if got := hex.EncodeToString(sum[:]); got != wantDigest {
		t.Errorf("1 KiB read digest %s, want %s", got, wantDigest)
	}
}

func TestNewTRNGValidation(t *testing.T) {
	ctrl := newController(t, 108)
	cells := identifyForTest(t, ctrl, 1)
	sels, err := SelectBankWords(cells)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTRNG(nil, sels, DefaultTRNGConfig("A")); err == nil {
		t.Error("nil controller accepted")
	}
	if _, err := NewTRNG(ctrl, nil, DefaultTRNGConfig("A")); err == nil {
		t.Error("empty selections accepted")
	}
	bad := DefaultTRNGConfig("A")
	bad.TRCDNS = 99
	if _, err := NewTRNG(ctrl, sels, bad); err == nil {
		t.Error("tRCD above default accepted")
	}
	sameRow := []BankSelection{{
		Bank:  0,
		Word1: WordRef{Bank: 0, Row: 3, WordIdx: 0, RNGCells: []RNGCell{{Addr: profiler.CellAddr{Bank: 0, Row: 3, Col: 1}}}},
		Word2: WordRef{Bank: 0, Row: 3, WordIdx: 1, RNGCells: []RNGCell{{Addr: profiler.CellAddr{Bank: 0, Row: 3, Col: 300}, WordIdx: 1}}},
	}}
	if _, err := NewTRNG(ctrl, sameRow, DefaultTRNGConfig("A")); err == nil {
		t.Error("single-row selection accepted")
	}
	// A sample phase takes one word per bank, so a bank may be selected once.
	if _, err := NewTRNG(ctrl, []BankSelection{sels[0], sels[0]}, DefaultTRNGConfig("A")); err == nil {
		t.Error("bank selected twice accepted")
	}
}

func TestSampleCellValidation(t *testing.T) {
	ctrl := newController(t, 110)
	if _, err := SampleCell(ctrl, RNGCell{Addr: profiler.CellAddr{Bank: 99}}, pattern.Solid0(), 10, 10); err == nil {
		t.Error("out-of-range cell accepted")
	}
	if _, err := SampleCell(ctrl, RNGCell{}, pattern.Solid0(), 10, 0); err == nil {
		t.Error("zero samples accepted")
	}
}
