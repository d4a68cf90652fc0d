package dram

import (
	"slices"
	"testing"

	"repro/internal/timing"
)

func testDevice(t *testing.T, seed uint64) *Device {
	t.Helper()
	d, err := NewDevice(Config{
		Serial:       seed,
		Manufacturer: ManufacturerA,
		Noise:        NewDeterministicNoise(seed),
	})
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

func TestNewDeviceDefaults(t *testing.T) {
	d := testDevice(t, 1)
	if d.Geometry().Banks != 8 {
		t.Errorf("default banks = %d, want 8", d.Geometry().Banks)
	}
	if d.Timing().Type != timing.LPDDR4 {
		t.Errorf("default timing type = %v, want LPDDR4", d.Timing().Type)
	}
	if d.Manufacturer() != ManufacturerA {
		t.Errorf("manufacturer = %v, want A", d.Manufacturer())
	}
	if d.Temperature() != BaselineTemperatureC {
		t.Errorf("initial temperature = %v, want %v", d.Temperature(), BaselineTemperatureC)
	}
	if d.Serial() != 1 {
		t.Errorf("serial = %d, want 1", d.Serial())
	}
}

func TestNewDeviceDDR3Defaults(t *testing.T) {
	d, err := NewDevice(Config{Serial: 5, Manufacturer: ManufacturerB, Timing: timing.NewDDR3(), Noise: NewDeterministicNoise(1)})
	if err != nil {
		t.Fatal(err)
	}
	if d.Geometry().WordBits != 512 {
		t.Errorf("DDR3 word bits = %d, want 512", d.Geometry().WordBits)
	}
}

func TestNewDeviceRejectsBadConfig(t *testing.T) {
	if _, err := NewDevice(Config{Manufacturer: Manufacturer("X")}); err == nil {
		t.Error("unknown manufacturer accepted")
	}
	bad := MustProfile(ManufacturerA)
	bad.NoiseSigmaNS = 0
	if _, err := NewDevice(Config{Profile: &bad}); err == nil {
		t.Error("invalid profile accepted")
	}
	g := DefaultLPDDR4Geometry()
	g.WordBits = 100
	if _, err := NewDevice(Config{Manufacturer: ManufacturerA, Geometry: g}); err == nil {
		t.Error("invalid geometry accepted")
	}
	tp := timing.NewLPDDR4()
	tp.TRCD = -1
	if _, err := NewDevice(Config{Manufacturer: ManufacturerA, Timing: tp}); err == nil {
		t.Error("invalid timing accepted")
	}
}

func TestSetTemperatureBounds(t *testing.T) {
	d := testDevice(t, 2)
	if err := d.SetTemperature(55); err != nil {
		t.Errorf("SetTemperature(55): %v", err)
	}
	if d.Temperature() != 55 {
		t.Errorf("Temperature = %v, want 55", d.Temperature())
	}
	if err := d.SetTemperature(-100); err == nil {
		t.Error("SetTemperature(-100) should fail")
	}
	if err := d.SetTemperature(500); err == nil {
		t.Error("SetTemperature(500) should fail")
	}
}

func TestActivateReadWriteRoundTrip(t *testing.T) {
	d := testDevice(t, 3)
	g := d.Geometry()
	word := make([]uint64, g.WordBits/64)
	for i := range word {
		word[i] = 0xAAAAAAAAAAAAAAAA
	}

	if err := d.Activate(0, 10, d.Timing().TRCD); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteWord(0, 3, word); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadWord(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range word {
		if got[i] != word[i] {
			t.Fatalf("word[%d] = %x, want %x (default tRCD must be error-free)", i, got[i], word[i])
		}
	}
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	if row, _ := d.OpenRow(0); row != -1 {
		t.Errorf("OpenRow after precharge = %d, want -1", row)
	}
}

func TestActivateErrors(t *testing.T) {
	d := testDevice(t, 4)
	if err := d.Activate(-1, 0, 18); err == nil {
		t.Error("negative bank accepted")
	}
	if err := d.Activate(0, -1, 18); err == nil {
		t.Error("negative row accepted")
	}
	if err := d.Activate(0, 1<<30, 18); err == nil {
		t.Error("out-of-range row accepted")
	}
	if err := d.Activate(0, 0, 0); err == nil {
		t.Error("zero tRCD accepted")
	}
	if err := d.Activate(0, 0, 18); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(0, 1, 18); err == nil {
		t.Error("double activation accepted")
	}
}

func TestReadWriteRequireOpenRow(t *testing.T) {
	d := testDevice(t, 5)
	if _, err := d.ReadWord(0, 0); err == nil {
		t.Error("read with closed row accepted")
	}
	word := make([]uint64, d.Geometry().WordBits/64)
	if err := d.WriteWord(0, 0, word); err == nil {
		t.Error("write with closed row accepted")
	}
	if err := d.WriteWord(0, 0, word[:1]); err == nil {
		t.Error("short word accepted")
	}
}

func TestDefaultTRCDNeverFails(t *testing.T) {
	d := testDevice(t, 6)
	g := d.Geometry()
	zero := make([]uint64, g.rowU64s())
	for row := 0; row < 64; row++ {
		if err := d.WriteRow(0, row, zero); err != nil {
			t.Fatal(err)
		}
	}
	for row := 0; row < 64; row++ {
		if err := d.Activate(0, row, d.Timing().TRCD); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < g.WordsPerRow(); w++ {
			got, err := d.ReadWord(0, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range got {
				if v != 0 {
					t.Fatalf("row %d word %d: default-tRCD read returned %x, want all zeros", row, w, v)
				}
			}
		}
		if err := d.Precharge(0); err != nil {
			t.Fatal(err)
		}
	}
	if d.Stats().InjectedFlips != 0 {
		t.Errorf("InjectedFlips = %d, want 0 at default tRCD", d.Stats().InjectedFlips)
	}
}

func TestReducedTRCDInducesFailures(t *testing.T) {
	d := testDevice(t, 7)
	g := d.Geometry()
	zero := make([]uint64, g.rowU64s())
	flips := 0
	for row := 0; row < 256; row++ {
		if err := d.WriteRow(0, row, zero); err != nil {
			t.Fatal(err)
		}
	}
	for iter := 0; iter < 5; iter++ {
		for row := 0; row < 256; row++ {
			if err := d.Activate(0, row, 8.0); err != nil {
				t.Fatal(err)
			}
			for w := 0; w < g.WordsPerRow(); w++ {
				got, err := d.ReadWord(0, w)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range got {
					if v != 0 {
						flips++
					}
				}
				// Restore original data as Algorithm 2 does.
				if err := d.WriteWord(0, w, zero[:g.wordU64s()]); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Precharge(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if flips == 0 {
		t.Error("no activation failures observed at tRCD=8 ns across 256 rows and 5 iterations")
	}
}

func TestOnlyFirstWordAfterActivationFails(t *testing.T) {
	d := testDevice(t, 8)
	g := d.Geometry()
	zero := make([]uint64, g.rowU64s())

	// Find a word with at least one weak, vulnerable cell and high failure
	// probability by scanning the model directly.
	targetRow, targetWord := -1, -1
	for row := 0; row < g.RowsPerBank && targetRow < 0; row++ {
		for w := 0; w < g.WordsPerRow(); w++ {
			cols, err := d.WeakColumnsInWord(0, row, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, col := range cols {
				c, err := d.CellCharacter(0, row, col)
				if err != nil {
					t.Fatal(err)
				}
				if !c.AntiCell && c.FailureProbability(6.0, BaselineTemperatureC, 0) > 0.95 {
					targetRow, targetWord = row, w
					break
				}
			}
			if targetRow >= 0 {
				break
			}
		}
	}
	if targetRow < 0 {
		t.Skip("no high-probability cell found with this seed")
	}

	if err := d.WriteRow(0, targetRow, zero); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(0, targetRow, 6.0); err != nil {
		t.Fatal(err)
	}
	// First access goes to a DIFFERENT word: failures are bound to the first
	// accessed word only, so the target word must then read clean.
	otherWord := (targetWord + 1) % g.WordsPerRow()
	if _, err := d.ReadWord(0, otherWord); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadWord(0, targetWord)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v != 0 {
			t.Error("second accessed word contained failures; only the first word after activation may fail")
		}
	}
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
}

func TestFailuresCorruptStoredRowUntilRewritten(t *testing.T) {
	d := testDevice(t, 9)
	g := d.Geometry()
	zero := make([]uint64, g.rowU64s())

	// Find a near-certain failing cell.
	targetRow, targetWord, targetCol := -1, -1, -1
	for row := 0; row < g.RowsPerBank && targetRow < 0; row++ {
		for w := 0; w < g.WordsPerRow(); w++ {
			cols, _ := d.WeakColumnsInWord(0, row, w)
			for _, col := range cols {
				c, _ := d.CellCharacter(0, row, col)
				if !c.AntiCell && c.FailureProbability(6.0, BaselineTemperatureC, 0) > 0.999 {
					targetRow, targetWord, targetCol = row, w, col
					break
				}
			}
			if targetRow >= 0 {
				break
			}
		}
	}
	if targetRow < 0 {
		t.Skip("no near-certain failing cell found with this seed")
	}
	if err := d.WriteRow(0, targetRow, zero); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(0, targetRow, 6.0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadWord(0, targetWord); err != nil {
		t.Fatal(err)
	}
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	raw, err := d.ReadRowRaw(0, targetRow)
	if err != nil {
		t.Fatal(err)
	}
	if getBit(raw, targetCol) == 0 {
		t.Error("activation failure should have been restored into the array (bit still 0)")
	}
}

func TestStartupRowDeterministicAndDeviceSpecific(t *testing.T) {
	d1 := testDevice(t, 10)
	d2 := testDevice(t, 11)
	a, err := d1.StartupRow(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d1.StartupRow(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := d2.StartupRow(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("startup values not stable across reads")
	}
	if !diff {
		t.Error("startup values identical across different devices")
	}
	if _, err := d1.StartupRow(99, 0); err == nil {
		t.Error("out-of-range bank accepted")
	}
}

func TestRefreshRequiresClosedRows(t *testing.T) {
	d := testDevice(t, 12)
	if err := d.Refresh(); err != nil {
		t.Fatalf("refresh with all banks closed: %v", err)
	}
	if err := d.Activate(2, 5, 18); err != nil {
		t.Fatal(err)
	}
	if err := d.Refresh(); err == nil {
		t.Error("refresh with open row accepted")
	}
}

func TestDeviceStatsCount(t *testing.T) {
	d := testDevice(t, 13)
	g := d.Geometry()
	word := make([]uint64, g.wordU64s())
	if err := d.Activate(0, 0, 10.0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadWord(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteWord(0, 0, word); err != nil {
		t.Fatal(err)
	}
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Activates != 1 || s.Reads != 1 || s.Writes != 1 || s.Precharges != 1 {
		t.Errorf("stats = %+v, want 1 of each", s)
	}
	if s.ReducedTRCDAct != 1 {
		t.Errorf("ReducedTRCDAct = %d, want 1", s.ReducedTRCDAct)
	}
}

func TestFailureProbabilityAtMatchesCellModel(t *testing.T) {
	d := testDevice(t, 14)
	g := d.Geometry()
	zero := make([]uint64, g.rowU64s())
	if err := d.WriteRow(0, 0, zero); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRow(0, 1, zero); err != nil {
		t.Fatal(err)
	}
	found := false
	for col := 0; col < g.ColsPerRow; col++ {
		p, err := d.FailureProbabilityAt(0, 0, col, 10.0)
		if err != nil {
			t.Fatal(err)
		}
		if p > 0 {
			found = true
			if p > 1 {
				t.Errorf("probability %v > 1", p)
			}
		}
	}
	if !found {
		t.Error("no cell with positive failure probability at tRCD=10 in row 0")
	}
	if _, err := d.FailureProbabilityAt(0, 0, -1, 10); err == nil {
		t.Error("negative column accepted")
	}
}

func TestWriteRowValidation(t *testing.T) {
	d := testDevice(t, 15)
	if err := d.WriteRow(0, 0, make([]uint64, 3)); err == nil {
		t.Error("short row data accepted")
	}
	if err := d.WriteRow(0, 1<<30, make([]uint64, d.Geometry().rowU64s())); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := d.ReadRowRaw(0, 1<<30); err == nil {
		t.Error("out-of-range row accepted by ReadRowRaw")
	}
}

func TestBitHelpers(t *testing.T) {
	data := make([]uint64, 2)
	setBit(data, 5, 1)
	if getBit(data, 5) != 1 {
		t.Error("setBit/getBit mismatch")
	}
	setBit(data, 5, 0)
	if getBit(data, 5) != 0 {
		t.Error("clearing a bit failed")
	}
	flipBit(data, 70)
	if getBit(data, 70) != 1 {
		t.Error("flipBit failed to set")
	}
	flipBit(data, 70)
	if getBit(data, 70) != 0 {
		t.Error("flipBit failed to clear")
	}
}

// sampleByCommands is SampleWord as separate commands.
func sampleByCommands(d *Device, bank, row, wordIdx int, mode SampleMode, trcdNS float64, dst, restore []uint64) error {
	if mode&SamplePrecharge != 0 {
		if err := d.Precharge(bank); err != nil {
			return err
		}
	}
	if mode&SampleRefresh != 0 {
		if err := d.Activate(bank, row, d.Timing().TRCD); err != nil {
			return err
		}
		if err := d.Precharge(bank); err != nil {
			return err
		}
	}
	if err := d.Activate(bank, row, trcdNS); err != nil {
		return err
	}
	if err := d.ReadWordInto(bank, wordIdx, dst); err != nil {
		return err
	}
	if mode&SampleRestoreIfDirty == 0 || !slices.Equal(dst, restore) {
		if err := d.WriteWord(bank, wordIdx, restore); err != nil {
			return err
		}
	}
	if mode&SampleClose != 0 {
		return d.Precharge(bank)
	}
	return nil
}

// TestSampleWordMatchesCommandSequence: on valid arguments SampleWord leaves
// the same words, row data and counters as the command sequence it stands
// for, under every mode: the bank is left open or closed as the mode needs,
// with the sampled row or another one open before SamplePrecharge, and the
// restore value is alternately the stored word (a clean read unless a cell
// fails) and zeros (a dirty one). On invalid arguments it returns the
// sequence's first error without touching any state.
func TestSampleWordMatchesCommandSequence(t *testing.T) {
	fused, seq := testDevice(t, 9), testDevice(t, 9)
	g := fused.Geometry()
	nw := g.wordU64s()
	zero := make([]uint64, nw)
	var clean, dirty int
	for i := 0; i < 640; i++ {
		bank, row, w := i%3, 1+i%7, i%g.WordsPerRow()
		mode := SampleMode(i % 16)
		stored, err := seq.ReadRowRaw(bank, row)
		if err != nil {
			t.Fatal(err)
		}
		restore := stored[w*nw : (w+1)*nw]
		if i/16%2 == 1 {
			restore = zero
		}
		var got [2][]uint64
		for k, d := range []*Device{fused, seq} {
			// Close the bank, then open a row for SamplePrecharge to close:
			// the sampled row, or the one after it.
			if err := d.Precharge(bank); err != nil {
				t.Fatal(err)
			}
			if mode&SamplePrecharge != 0 {
				if err := d.Activate(bank, row+i/32%2, 18); err != nil {
					t.Fatal(err)
				}
			}
			got[k] = make([]uint64, nw)
			sample := sampleByCommands
			if k == 0 {
				sample = (*Device).SampleWord
			}
			if err := sample(d, bank, row, w, mode, 8, got[k], restore); err != nil {
				t.Fatalf("sample %d (mode %04b) on device %d: %v", i, mode, k, err)
			}
		}
		if !slices.Equal(got[0], got[1]) {
			t.Fatalf("sample %d (mode %04b): SampleWord read %x, the command sequence %x", i, mode, got[0], got[1])
		}
		if mode&SampleRestoreIfDirty != 0 {
			if slices.Equal(got[0], restore) {
				clean++
			} else {
				dirty++
			}
		}
		for bank := 0; bank < 3; bank++ {
			if a, b := fused.banks[bank], seq.banks[bank]; a.open != b.open || a.openRow != b.openRow || a.firstAccessPending != b.firstAccessPending {
				t.Fatalf("sample %d (mode %04b): bank %d row buffers differ", i, mode, bank)
			}
		}
	}
	if clean == 0 || dirty == 0 {
		t.Errorf("restore-if-dirty samples: %d clean and %d dirty, want both", clean, dirty)
	}
	if fused.Stats() != seq.Stats() || fused.Stats().InjectedFlips == 0 {
		t.Fatalf("stats %+v, command sequence %+v (want equal, with flips)", fused.Stats(), seq.Stats())
	}
	for bank := 0; bank < 3; bank++ {
		for row := 0; row < 9; row++ {
			a, _ := fused.ReadRowRaw(bank, row)
			b, _ := seq.ReadRowRaw(bank, row)
			if !slices.Equal(a, b) {
				t.Fatalf("bank %d row %d differs after sampling", bank, row)
			}
		}
	}

	dst, restore := make([]uint64, nw), make([]uint64, nw)
	bad := []struct {
		name               string
		bank, row, wordIdx int
		mode               SampleMode
		trcdNS             float64
		dst, restore       []uint64
	}{
		{"negative bank", -1, 0, 0, 0, 8, dst, restore},
		{"negative bank, precharge first", -1, 0, 0, SamplePrecharge | SampleClose, 8, dst, restore},
		{"bank out of range", g.Banks, 0, 0, 0, 8, dst, restore},
		{"row out of range", 0, g.RowsPerBank, 0, SampleRefresh, 8, dst, restore},
		{"zero tRCD", 0, 0, 0, 0, 0, dst, restore},
		{"word out of range", 0, 0, g.WordsPerRow(), 0, 8, dst, restore},
		{"short destination", 0, 0, 0, 0, 8, dst[:1], restore},
		{"short restore", 0, 0, 0, 0, 8, dst, restore[:1]},
		{"short restore, restore if dirty", 0, 0, 0, SampleRestoreIfDirty, 8, dst, restore[:1]},
		{"row already open", 1, 0, 0, 0, 8, dst, restore},
		{"row already open, refresh", 1, 0, 0, SampleRefresh, 8, dst, restore},
	}
	for _, tc := range bad {
		// The command sequence may open bank 0 before it fails; start every
		// case from bank 0 closed and row 5 open in bank 1.
		for _, d := range []*Device{fused, seq} {
			if err := d.Precharge(0); err != nil {
				t.Fatal(err)
			}
			if err := d.Precharge(1); err != nil {
				t.Fatal(err)
			}
			if err := d.Activate(1, 5, 18); err != nil {
				t.Fatal(err)
			}
		}
		before := fused.Stats()
		errFused := fused.SampleWord(tc.bank, tc.row, tc.wordIdx, tc.mode, tc.trcdNS, tc.dst, tc.restore)
		errSeq := sampleByCommands(seq, tc.bank, tc.row, tc.wordIdx, tc.mode, tc.trcdNS, tc.dst, tc.restore)
		if errFused == nil || errSeq == nil || errFused.Error() != errSeq.Error() {
			t.Errorf("%s: SampleWord error %v, command sequence %v", tc.name, errFused, errSeq)
		}
		if after := fused.Stats(); after != before {
			t.Errorf("%s: rejected SampleWord changed the stats %+v -> %+v", tc.name, before, after)
		}
	}
}
