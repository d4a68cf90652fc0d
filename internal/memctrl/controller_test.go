package memctrl

import (
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/timing"
)

func newTestController(t *testing.T, opts ...Option) *Controller {
	t.Helper()
	dev, err := dram.NewDevice(dram.Config{
		Serial:       42,
		Manufacturer: dram.ManufacturerA,
		Noise:        dram.NewDeterministicNoise(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewController(dev, opts...)
}

func TestControllerReadWriteRoundTrip(t *testing.T) {
	c := newTestController(t)
	g := c.Device().Geometry()
	word := make([]uint64, g.WordBits/64)
	for i := range word {
		word[i] = 0x5555555555555555
	}
	if _, err := c.WriteWord(2, 7, 3, word); err != nil {
		t.Fatal(err)
	}
	got, done, err := c.ReadWord(2, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Errorf("data-ready cycle = %d, want positive", done)
	}
	for i := range word {
		if got[i] != word[i] {
			t.Fatalf("read back %x, want %x", got[i], word[i])
		}
	}
	s := c.Stats()
	if s.ACTs != 1 {
		t.Errorf("ACTs = %d, want 1 (row stays open between write and read)", s.ACTs)
	}
	if s.Reads != 1 || s.Writes != 1 {
		t.Errorf("Reads/Writes = %d/%d, want 1/1", s.Reads, s.Writes)
	}
}

func TestControllerRowConflictPrecharges(t *testing.T) {
	c := newTestController(t)
	if _, _, err := c.ReadWord(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadWord(0, 2, 0); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.ACTs != 2 || s.PREs != 1 {
		t.Errorf("ACTs=%d PREs=%d, want 2 and 1 for a row conflict", s.ACTs, s.PREs)
	}
	row, err := c.OpenRow(0)
	if err != nil {
		t.Fatal(err)
	}
	if row != 2 {
		t.Errorf("open row = %d, want 2", row)
	}
}

func TestControllerSetReducedTRCDValidation(t *testing.T) {
	c := newTestController(t)
	if err := c.SetReducedTRCD(0); err == nil {
		t.Error("zero tRCD accepted")
	}
	if err := c.SetReducedTRCD(25); err == nil {
		t.Error("tRCD above default accepted")
	}
	if err := c.SetReducedTRCD(10); err != nil {
		t.Fatalf("SetReducedTRCD(10): %v", err)
	}
	if c.EffectiveTRCD() != 10 {
		t.Errorf("EffectiveTRCD = %v, want 10", c.EffectiveTRCD())
	}
	c.ResetTRCD()
	if c.EffectiveTRCD() != c.Params().TRCD {
		t.Errorf("EffectiveTRCD after reset = %v, want default %v", c.EffectiveTRCD(), c.Params().TRCD)
	}
}

func TestControllerReducedTRCDCountsViolations(t *testing.T) {
	c := newTestController(t)
	if err := c.SetReducedTRCD(10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadWord(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if c.Stats().TRCDViolations == 0 {
		t.Error("reduced-tRCD read did not count as an intentional violation")
	}
}

func TestControllerTimingRespectsTRRDAndTRCD(t *testing.T) {
	c := newTestController(t, WithTrace())
	p := c.Params()
	// Interleave ACT-causing reads across two banks.
	if _, _, err := c.ReadWord(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadWord(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	trace := c.Trace()
	var acts []timing.Command
	var reads []timing.Command
	for _, cmd := range trace {
		switch cmd.Kind {
		case timing.CmdACT:
			acts = append(acts, cmd)
		case timing.CmdRead:
			reads = append(reads, cmd)
		}
	}
	if len(acts) != 2 || len(reads) != 2 {
		t.Fatalf("trace has %d ACTs and %d READs, want 2 and 2", len(acts), len(reads))
	}
	if gap := acts[1].IssueCycle - acts[0].IssueCycle; gap < p.Cycles(p.TRRD) {
		t.Errorf("ACT-to-ACT gap %d cycles < tRRD %d cycles", gap, p.Cycles(p.TRRD))
	}
	if gap := reads[0].IssueCycle - acts[0].IssueCycle; gap < p.Cycles(p.TRCD) {
		t.Errorf("ACT-to-READ gap %d cycles < tRCD %d cycles at default timing", gap, p.Cycles(p.TRCD))
	}
}

func TestControllerFourActivateWindow(t *testing.T) {
	c := newTestController(t, WithTrace())
	p := c.Params()
	for bank := 0; bank < 5; bank++ {
		if _, _, err := c.ReadWord(bank, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	var acts []int64
	for _, cmd := range c.Trace() {
		if cmd.Kind == timing.CmdACT {
			acts = append(acts, cmd.IssueCycle)
		}
	}
	if len(acts) != 5 {
		t.Fatalf("got %d ACTs, want 5", len(acts))
	}
	if gap := acts[4] - acts[0]; gap < p.Cycles(p.TFAW) {
		t.Errorf("5th ACT only %d cycles after 1st, violates tFAW (%d cycles)", gap, p.Cycles(p.TFAW))
	}
}

// TestControllerRefreshRowRestoresCharge checks SampleOp.Refresh, Algorithm
// 1's row refresh: its ACT and PRE run at the default tRCD, so the device
// counts only the sample's own ACT as reduced, the trace records the refresh
// commands without the override, and Close leaves the bank precharged.
func TestControllerRefreshRowRestoresCharge(t *testing.T) {
	c := newTestController(t, WithTrace())
	if err := c.SetReducedTRCD(10); err != nil {
		t.Fatal(err)
	}
	nw := c.Device().Geometry().WordBits / 64
	probe := []SampleOp{{Bank: 0, Row: 5, Dst: make([]uint64, nw), Restore: make([]uint64, nw), Refresh: true, Close: true}}
	// NewController precharged every bank of the device.
	precharged := c.Device().Stats().Precharges
	if err := c.SamplePhase(probe); err != nil {
		t.Fatal(err)
	}
	row, err := c.OpenRow(0)
	if err != nil {
		t.Fatal(err)
	}
	if row != -1 {
		t.Errorf("open row after the probe = %d, want -1", row)
	}
	if s := c.Device().Stats(); s.Activates != 2 || s.ReducedTRCDAct != 1 || s.Precharges-precharged != 2 {
		t.Errorf("device stats %+v: want 2 activations, 1 of them reduced, and 2 precharges after the %d of NewController", s, precharged)
	}
	var kinds []timing.CommandKind
	var overrides []float64
	for _, cmd := range c.Trace() {
		kinds = append(kinds, cmd.Kind)
		overrides = append(overrides, cmd.TRCDOverrideNS)
	}
	wantKinds := []timing.CommandKind{timing.CmdACT, timing.CmdPRE, timing.CmdACT, timing.CmdRead, timing.CmdWrite, timing.CmdPRE}
	wantOverrides := []float64{0, 0, 10, 10, 10, 10}
	if !reflect.DeepEqual(kinds, wantKinds) || !reflect.DeepEqual(overrides, wantOverrides) {
		t.Errorf("trace kinds %v with tRCD overrides %v, want %v with %v", kinds, overrides, wantKinds, wantOverrides)
	}
}

func TestControllerPeriodicRefresh(t *testing.T) {
	c := newTestController(t, WithRefresh())
	p := c.Params()
	// Run enough accesses to cross several tREFI windows.
	rounds := int(p.Cycles(p.TREFI)/p.Cycles(p.TRC))*3 + 10
	for i := 0; i < rounds; i++ {
		if _, _, err := c.ReadWord(i%4, i%16, 0); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Refreshes == 0 {
		t.Error("no refreshes issued despite crossing multiple tREFI windows")
	}
}

func TestControllerIdleAndSync(t *testing.T) {
	c := newTestController(t)
	before := c.Now()
	c.Idle(100)
	if c.Now() != before+100 {
		t.Errorf("Idle(100) advanced to %d, want %d", c.Now(), before+100)
	}
	c.Idle(-5)
	if c.Now() != before+100 {
		t.Error("negative idle should be a no-op")
	}
	if _, _, err := c.ReadWord(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	end := c.SyncAllBanks()
	if end < c.Now() {
		t.Errorf("SyncAllBanks returned %d before now %d", end, c.Now())
	}
	if c.NowNS() <= 0 {
		t.Error("NowNS should be positive after activity")
	}
}

func TestControllerBankRangeChecks(t *testing.T) {
	c := newTestController(t)
	if _, _, err := c.ReadWord(99, 0, 0); err == nil {
		t.Error("out-of-range bank accepted by ReadWord")
	}
	if _, err := c.WriteWord(-1, 0, 0, nil); err == nil {
		t.Error("negative bank accepted by WriteWord")
	}
	if err := c.PrechargeBank(99); err == nil {
		t.Error("out-of-range bank accepted by PrechargeBank")
	}
	if err := c.SamplePhase([]SampleOp{{Bank: 99, Refresh: true}}); err == nil {
		t.Error("out-of-range bank accepted by a refreshing SamplePhase")
	}
	if _, err := c.OpenRow(99); err == nil {
		t.Error("out-of-range bank accepted by OpenRow")
	}
}

func TestControllerTraceToggle(t *testing.T) {
	c := newTestController(t)
	if _, _, err := c.ReadWord(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if len(c.Trace()) != 0 {
		t.Error("trace recorded without WithTrace")
	}

	ct := newTestController(t, WithTrace())
	if _, _, err := ct.ReadWord(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if len(ct.Trace()) == 0 {
		t.Error("trace empty despite WithTrace")
	}
	n := ct.ResetTrace()
	if n == 0 || len(ct.Trace()) != 0 {
		t.Error("ResetTrace did not clear the trace")
	}
}
