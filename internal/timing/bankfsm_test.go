package timing

import "testing"

func TestBankFSMInitialState(t *testing.T) {
	b := NewBankFSM(NewLPDDR4())
	if got := b.State(0); got != BankPrecharged {
		t.Fatalf("initial state = %v, want precharged", got)
	}
	if b.OpenRow() != -1 {
		t.Errorf("OpenRow = %d, want -1", b.OpenRow())
	}
}

func TestBankFSMLegalSequence(t *testing.T) {
	p := NewLPDDR4()
	b := NewBankFSM(p)

	viol, err := b.Activate(0, 42, 0)
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	if viol != nil {
		t.Fatalf("unexpected violation on first ACT: %v", viol)
	}
	if b.OpenRow() != 42 {
		t.Errorf("OpenRow = %d, want 42", b.OpenRow())
	}
	if got := b.State(0); got != BankActivating {
		t.Errorf("state right after ACT = %v, want activating", got)
	}

	// Wait the full tRCD, then READ: no violation.
	readCycle := p.Cycles(p.TRCD)
	if got := b.State(readCycle); got != BankActive {
		t.Errorf("state after tRCD = %v, want active", got)
	}
	done, viol, err := b.Read(readCycle)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if viol != nil {
		t.Errorf("unexpected violation on legal READ: %v", viol)
	}
	if done <= readCycle {
		t.Errorf("data done cycle %d not after read cycle %d", done, readCycle)
	}

	// Precharge after tRAS.
	preCycle := p.Cycles(p.TRAS)
	viol, err = b.Precharge(preCycle)
	if err != nil {
		t.Fatalf("Precharge: %v", err)
	}
	if viol != nil {
		t.Errorf("unexpected violation on legal PRE: %v", viol)
	}
	if b.OpenRow() != -1 {
		t.Errorf("OpenRow after PRE = %d, want -1", b.OpenRow())
	}

	// Activate again after tRP (and tRC from the first ACT).
	actCycle := preCycle + p.Cycles(p.TRP)
	if actCycle < p.Cycles(p.TRC) {
		actCycle = p.Cycles(p.TRC)
	}
	viol, err = b.Activate(actCycle, 7, 0)
	if err != nil {
		t.Fatalf("second Activate: %v", err)
	}
	if viol != nil {
		t.Errorf("unexpected violation on second legal ACT: %v", viol)
	}
}

func TestBankFSMEarlyReadIsTRCDViolation(t *testing.T) {
	p := NewLPDDR4()
	b := NewBankFSM(p)
	if _, err := b.Activate(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Issue the READ well before tRCD elapsed.
	_, viol, err := b.Read(2)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if viol == nil {
		t.Fatal("expected a tRCD violation, got none")
	}
	if viol.Parameter != "tRCD" || !viol.Intentional() {
		t.Errorf("violation = %+v, want intentional tRCD violation", viol)
	}
	if viol.Error() == "" {
		t.Error("violation Error() should be non-empty")
	}
}

func TestBankFSMReducedTRCDOverride(t *testing.T) {
	p := NewLPDDR4()
	b := NewBankFSM(p)
	// Activate with a reduced tRCD of 10 ns: a READ at 10 ns is then
	// "legal" from the FSM's register-file point of view.
	if _, err := b.Activate(0, 3, 10.0); err != nil {
		t.Fatal(err)
	}
	if got := b.LastACTReducedTRCD(); got != 10.0 {
		t.Errorf("LastACTReducedTRCD = %v, want 10", got)
	}
	readCycle := p.Cycles(10.0)
	_, viol, err := b.Read(readCycle)
	if err != nil {
		t.Fatal(err)
	}
	if viol != nil {
		t.Errorf("READ at reduced tRCD should not violate the programmed register, got %v", viol)
	}
}

// TestBankFSMReducedTRCDSequence checks the READ-ready cycle across ACTs
// whose tRCD changes, returns to the default, and repeats: each ACT must use
// its own tRCD, never the previous ACT's.
func TestBankFSMReducedTRCDSequence(t *testing.T) {
	p := NewLPDDR4()
	b := NewBankFSM(p)
	now := int64(0)
	for i, trcd := range []float64{10.0, 0, 12.5, 12.5} {
		if _, err := b.Activate(now, i, trcd); err != nil {
			t.Fatal(err)
		}
		want := now + p.Cycles(p.TRCD)
		if trcd > 0 {
			want = now + p.Cycles(trcd)
		}
		if got := b.EarliestRead(); got != want {
			t.Errorf("ACT %d (tRCD %v ns): EarliestRead = %d, want %d", i, trcd, got, want)
		}
		if _, err := b.Precharge(b.EarliestPRE()); err != nil {
			t.Fatal(err)
		}
		now = b.EarliestACT()
	}
}

// TestBankFSMReducedTRCDCacheAcrossFullACTs alternates full-latency ACTs
// with two reduced values, as characterization's refresh-then-sample probes
// do: every ACT's READ-ready cycle must equal that of the same ACT on a fresh
// FSM, and LastACTReducedTRCD must report each ACT's own override, 0 after a
// full-latency one.
func TestBankFSMReducedTRCDCacheAcrossFullACTs(t *testing.T) {
	p := NewLPDDR4()
	b := NewBankFSM(p)
	now := int64(0)
	for i, trcd := range []float64{0, 10, 0, 10, 0, 12.5, 0, 12.5, 10, 0, 10} {
		if _, err := b.Activate(now, 7, trcd); err != nil {
			t.Fatal(err)
		}
		fresh := NewBankFSM(p)
		if _, err := fresh.Activate(now, 7, trcd); err != nil {
			t.Fatal(err)
		}
		if got, want := b.EarliestRead(), fresh.EarliestRead(); got != want {
			t.Errorf("ACT %d (tRCD %v ns): EarliestRead = %d, a fresh FSM gives %d", i, trcd, got, want)
		}
		if got := b.LastACTReducedTRCD(); got != trcd {
			t.Errorf("ACT %d: LastACTReducedTRCD = %v, want %v", i, got, trcd)
		}
		if _, err := b.Precharge(b.EarliestPRE()); err != nil {
			t.Fatal(err)
		}
		now = b.EarliestACT()
	}
}

func TestBankFSMActivateOpenBankFails(t *testing.T) {
	b := NewBankFSM(NewLPDDR4())
	if _, err := b.Activate(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Activate(5, 2, 0); err == nil {
		t.Error("activating a bank with an open row should error")
	}
}

func TestBankFSMReadPrechargedBankFails(t *testing.T) {
	b := NewBankFSM(NewLPDDR4())
	if _, _, err := b.Read(0); err == nil {
		t.Error("READ to a precharged bank should error")
	}
	if _, _, err := b.Write(0); err == nil {
		t.Error("WRITE to a precharged bank should error")
	}
}

func TestBankFSMEarlyPrechargeViolation(t *testing.T) {
	p := NewLPDDR4()
	b := NewBankFSM(p)
	if _, err := b.Activate(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	viol, err := b.Precharge(1)
	if err != nil {
		t.Fatal(err)
	}
	if viol == nil {
		t.Error("PRE before tRAS should report a violation")
	}
}

func TestBankFSMDoublePrechargeNoop(t *testing.T) {
	p := NewLPDDR4()
	b := NewBankFSM(p)
	if _, err := b.Activate(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Precharge(p.Cycles(p.TRAS)); err != nil {
		t.Fatal(err)
	}
	viol, err := b.Precharge(p.Cycles(p.TRAS) + 1)
	if err != nil {
		t.Fatalf("second PRE should be a no-op, got error %v", err)
	}
	if viol != nil {
		t.Errorf("second PRE should not violate, got %v", viol)
	}
}

func TestBankFSMRefreshRequiresPrecharged(t *testing.T) {
	p := NewLPDDR4()
	b := NewBankFSM(p)
	if _, err := b.Activate(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Refresh(10); err == nil {
		t.Error("refresh with an open row should error")
	}

	b2 := NewBankFSM(p)
	viol, err := b2.Refresh(0)
	if err != nil {
		t.Fatalf("refresh of precharged bank: %v", err)
	}
	if viol != nil {
		t.Errorf("refresh at cycle 0 should be legal, got %v", viol)
	}
	// After refresh the next ACT must wait tRFC.
	if got := b2.EarliestACT(); got != p.Cycles(p.TRFC) {
		t.Errorf("EarliestACT after REF = %d, want %d", got, p.Cycles(p.TRFC))
	}
}

func TestBankFSMWriteThenReadRespectsTurnaround(t *testing.T) {
	p := NewLPDDR4()
	b := NewBankFSM(p)
	if _, err := b.Activate(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	wCycle := p.Cycles(p.TRCD)
	done, viol, err := b.Write(wCycle)
	if err != nil {
		t.Fatal(err)
	}
	if viol != nil {
		t.Errorf("legal WRITE flagged: %v", viol)
	}
	if done <= wCycle {
		t.Errorf("write done %d not after issue %d", done, wCycle)
	}
	if b.EarliestRead() <= wCycle {
		t.Error("write-to-read turnaround not applied")
	}
}

func TestBankFSMNegativeRowRejected(t *testing.T) {
	b := NewBankFSM(NewLPDDR4())
	if _, err := b.Activate(0, -1, 0); err == nil {
		t.Error("negative row should be rejected")
	}
}

func TestBankStateStrings(t *testing.T) {
	for _, s := range []BankState{BankPrecharged, BankActivating, BankActive, BankPrecharging, BankState(42)} {
		if s.String() == "" {
			t.Errorf("BankState(%d) has empty string", int(s))
		}
	}
	for _, k := range []CommandKind{CmdACT, CmdPRE, CmdRead, CmdWrite, CmdRefresh, CommandKind(42)} {
		if k.String() == "" {
			t.Errorf("CommandKind(%d) has empty string", int(k))
		}
	}
}
