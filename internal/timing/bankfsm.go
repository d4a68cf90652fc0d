package timing

import "fmt"

// BankFSM tracks the timing state of a single bank: which row (if any) is
// open, and the earliest cycle at which each class of follow-up command may
// legally be issued. All cycle values are absolute command-clock cycles.
type BankFSM struct {
	params Params

	// Cached cycle conversions of the fixed parameters. Params conversions
	// copy the whole parameter struct per call, which shows up in the
	// per-sample hot path; converting once here keeps command application to
	// integer adds.
	cTRCD, cTRAS, cTRC, cTCL, cTCCD, cTRTP int64
	cTCWL, cTWR, cTWTR, cTRP, cTRFC        int64
	cBurst                                 int64
	// cReducedTRCD is the cycle conversion of reducedTRCDNS, the last reduced
	// tRCD an ACT brought; it is recomputed only when a reduced ACT brings a
	// different one, so full-latency ACTs in between keep it.
	cReducedTRCD  int64
	reducedTRCDNS float64

	state   BankState
	openRow int

	// Earliest legal issue cycles for the next command of each class.
	nextACT   int64
	nextPRE   int64
	nextRead  int64
	nextWrite int64

	// lastACTCycle is the cycle of the most recent ACT (for tRAS/tRC
	// accounting).
	lastACTCycle int64

	// lastACTReducedTRCD records the tRCD override (ns) attached to the most
	// recent ACT, or 0 for the default.
	lastACTReducedTRCD float64
}

// NewBankFSM returns a bank in the precharged state with no pending
// constraints.
func NewBankFSM(p Params) *BankFSM {
	return &BankFSM{
		params:       p,
		cTRCD:        p.Cycles(p.TRCD),
		cTRAS:        p.Cycles(p.TRAS),
		cTRC:         p.Cycles(p.TRC),
		cTCL:         p.Cycles(p.TCL),
		cTCCD:        p.Cycles(p.TCCD),
		cTRTP:        p.Cycles(p.TRTP),
		cTCWL:        p.Cycles(p.TCWL),
		cTWR:         p.Cycles(p.TWR),
		cTWTR:        p.Cycles(p.TWTR),
		cTRP:         p.Cycles(p.TRP),
		cTRFC:        p.Cycles(p.TRFC),
		cBurst:       p.BurstCycles(),
		state:        BankPrecharged,
		openRow:      -1,
		lastACTCycle: -1 << 60,
	}
}

// State returns the current row-buffer state, resolving the transient
// activating/precharging states against the supplied current cycle.
func (b *BankFSM) State(now int64) BankState {
	switch b.state {
	case BankActivating:
		if now >= b.nextRead {
			return BankActive
		}
		return BankActivating
	case BankPrecharging:
		if now >= b.nextACT {
			return BankPrecharged
		}
		return BankPrecharging
	default:
		return b.state
	}
}

// OpenRow returns the currently open row, or -1 when the bank is precharged.
func (b *BankFSM) OpenRow() int {
	if b.state == BankActive || b.state == BankActivating {
		return b.openRow
	}
	return -1
}

// EarliestACT returns the earliest cycle at which an ACT may be issued.
func (b *BankFSM) EarliestACT() int64 { return b.nextACT }

// EarliestRead returns the earliest cycle at which a READ may be issued to
// the open row (meaningful only when a row is open or opening).
func (b *BankFSM) EarliestRead() int64 { return b.nextRead }

// EarliestWrite returns the earliest cycle at which a WRITE may be issued.
func (b *BankFSM) EarliestWrite() int64 { return b.nextWrite }

// EarliestPRE returns the earliest cycle at which a PRE may be issued.
func (b *BankFSM) EarliestPRE() int64 { return b.nextPRE }

// LastACTReducedTRCD returns the tRCD override attached to the most recent
// ACT (0 when the default applied).
func (b *BankFSM) LastACTReducedTRCD() float64 { return b.lastACTReducedTRCD }

// Activate applies an ACT command at cycle now opening row. reducedTRCDNS,
// when positive, replaces the default tRCD for the purposes of the
// READ-ready constraint; the actual correctness consequence of violating the
// real tRCD is modelled by the DRAM device, not here. It returns a Violation
// (with Intentional()==true for reduced tRCD) when the command is issued
// before a constraint allows; a nil *Violation means the command was fully
// legal.
func (b *BankFSM) Activate(now int64, row int, reducedTRCDNS float64) (*Violation, error) {
	if row < 0 {
		return nil, fmt.Errorf("timing: activate of negative row %d", row)
	}
	if b.state == BankActive || b.state == BankActivating {
		return nil, fmt.Errorf("timing: activate issued to bank with open row %d (state %v)", b.openRow, b.state)
	}
	var viol *Violation
	if now < b.nextACT {
		viol = &Violation{Parameter: "tRP/tRC", RequiredCycle: b.nextACT, ActualCycle: now,
			Command: Command{Kind: CmdACT, Row: row, IssueCycle: now}}
	}

	cTRCD := b.cTRCD
	if reducedTRCDNS > 0 {
		if reducedTRCDNS != b.reducedTRCDNS {
			b.cReducedTRCD = b.params.Cycles(reducedTRCDNS)
			b.reducedTRCDNS = reducedTRCDNS
		}
		cTRCD = b.cReducedTRCD
	}
	b.state = BankActivating
	b.openRow = row
	b.lastACTCycle = now
	b.lastACTReducedTRCD = reducedTRCDNS

	b.nextRead = now + cTRCD
	b.nextWrite = now + cTRCD
	b.nextPRE = now + b.cTRAS
	b.nextACT = now + b.cTRC
	return viol, nil
}

// Read applies a READ command at cycle now. It returns the cycle at which the
// burst completes on the data bus, plus a Violation when the READ arrives
// before the (possibly reduced) activation latency elapsed.
func (b *BankFSM) Read(now int64) (dataDoneCycle int64, viol *Violation, err error) {
	if b.state != BankActive && b.state != BankActivating {
		return 0, nil, fmt.Errorf("timing: read issued to bank in state %v", b.state)
	}
	if now < b.nextRead {
		viol = &Violation{Parameter: "tRCD", RequiredCycle: b.nextRead, ActualCycle: now,
			Command: Command{Kind: CmdRead, Row: b.openRow, IssueCycle: now}}
	}
	b.state = BankActive
	dataDoneCycle = now + b.cTCL + b.cBurst
	// A subsequent read must respect tCCD; a precharge must respect tRTP and
	// tRAS (already captured in nextPRE).
	if nr := now + b.cTCCD; nr > b.nextRead {
		b.nextRead = nr
	}
	if nw := now + b.cTCCD; nw > b.nextWrite {
		b.nextWrite = nw
	}
	if np := now + b.cTRTP; np > b.nextPRE {
		b.nextPRE = np
	}
	return dataDoneCycle, viol, nil
}

// Write applies a WRITE command at cycle now. It returns the cycle at which
// the write data has been fully restored (write recovery complete).
func (b *BankFSM) Write(now int64) (writeDoneCycle int64, viol *Violation, err error) {
	if b.state != BankActive && b.state != BankActivating {
		return 0, nil, fmt.Errorf("timing: write issued to bank in state %v", b.state)
	}
	if now < b.nextWrite {
		viol = &Violation{Parameter: "tRCD", RequiredCycle: b.nextWrite, ActualCycle: now,
			Command: Command{Kind: CmdWrite, Row: b.openRow, IssueCycle: now}}
	}
	b.state = BankActive
	writeDoneCycle = now + b.cTCWL + b.cBurst + b.cTWR
	if nr := now + b.cTCWL + b.cBurst + b.cTWTR; nr > b.nextRead {
		b.nextRead = nr
	}
	if nw := now + b.cTCCD; nw > b.nextWrite {
		b.nextWrite = nw
	}
	if np := writeDoneCycle; np > b.nextPRE {
		b.nextPRE = np
	}
	return writeDoneCycle, viol, nil
}

// Precharge applies a PRE command at cycle now, closing the open row.
func (b *BankFSM) Precharge(now int64) (*Violation, error) {
	if b.state == BankPrecharged || b.state == BankPrecharging {
		// Precharging an already-precharged bank is legal (NOP-like) in real
		// controllers; treat it as a no-op.
		return nil, nil
	}
	var viol *Violation
	if now < b.nextPRE {
		viol = &Violation{Parameter: "tRAS/tRTP/tWR", RequiredCycle: b.nextPRE, ActualCycle: now,
			Command: Command{Kind: CmdPRE, Row: b.openRow, IssueCycle: now}}
	}
	b.state = BankPrecharging
	b.openRow = -1
	if na := now + b.cTRP; na > b.nextACT {
		b.nextACT = na
	}
	return viol, nil
}

// Refresh applies an all-bank refresh affecting this bank at cycle now. The
// bank must be precharged.
func (b *BankFSM) Refresh(now int64) (*Violation, error) {
	if b.state == BankActive || b.state == BankActivating {
		return nil, fmt.Errorf("timing: refresh issued while row %d open", b.openRow)
	}
	var viol *Violation
	if now < b.nextACT {
		viol = &Violation{Parameter: "tRP", RequiredCycle: b.nextACT, ActualCycle: now,
			Command: Command{Kind: CmdRefresh, IssueCycle: now}}
	}
	if na := now + b.cTRFC; na > b.nextACT {
		b.nextACT = na
	}
	return viol, nil
}
