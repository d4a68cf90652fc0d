// Package memctrl implements the memory-controller model D-RaNGe runs
// within: a programmable timing-register file (notably tRCD), per-bank state
// machines, rank-level activation constraints (tRRD, tFAW), command-bus and
// data-bus occupancy, optional refresh management, and a command trace for
// energy accounting.
//
// The controller issues commands in program order at the earliest legal
// cycle, which models the firmware sampling routine of Section 6.3: a simple
// loop that interleaves accesses across banks. SamplePhase issues one phase
// of that loop at once, and with its per-op options also each probe of
// characterization's Algorithm 1 loops, so every sample in the module goes
// through it. The per-command methods remain for callers that issue single
// commands, such as the workload-trace replay of the idle-bandwidth study
// (internal/sim).
package memctrl

import (
	"fmt"
	"slices"

	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/timing"
)

// Stats aggregates the controller's activity counters.
type Stats struct {
	Cycles        int64
	ACTs          int64
	PREs          int64
	Reads         int64
	Writes        int64
	Refreshes     int64
	DataBusCycles int64
	// TRCDViolations counts intentionally induced tRCD violations (reads
	// issued under a reduced activation latency).
	TRCDViolations int64
}

// Option configures a Controller.
type Option func(*Controller)

// WithTrace enables command-trace recording (needed for energy analysis).
func WithTrace() Option {
	return func(c *Controller) { c.traceEnabled = true }
}

// WithRefresh enables periodic all-bank refresh every tREFI.
func WithRefresh() Option {
	return func(c *Controller) { c.refreshEnabled = true }
}

// Controller drives one simulated DRAM device (one channel) with
// cycle-accurate command timing.
type Controller struct {
	dev    device.Device
	params timing.Params
	// reader and sampler are dev's optional fast paths, asserted once; nil
	// when dev does not offer them.
	reader  device.WordReaderInto
	sampler device.WordSampler

	// Cached cycle conversions of the rank-level constraints (Params
	// conversions copy the parameter struct per call — too costly per
	// sampled word).
	cTRRD, cTFAW, cBurst, cTCWL int64
	// The geometry is fetched through the device interface, so the figures
	// the per-command checks need are cached.
	rowsPerBank, wordsPerRow, wordU64s int

	// reducedTRCDNS is the programmed activation latency override in
	// nanoseconds; 0 means the JEDEC default applies.
	reducedTRCDNS float64

	banks []*timing.BankFSM
	// phase records, per bank, what the running SamplePhase issued at the
	// bank's ACT slot; phaseGen numbers SamplePhase calls.
	phase    []phaseSlot
	phaseGen uint64

	now     int64
	lastACT int64
	// recentACTs is a fixed ring of the last four activate cycles (for the
	// four-activate tFAW window); actCount is the number of ACTs issued.
	recentACTs   [4]int64
	actCount     int64
	busBusyUntil int64

	refreshEnabled bool
	nextRefresh    int64

	traceEnabled bool
	trace        []timing.Command

	stats Stats
}

// NewController builds a controller for dev. Any device.Device works — the
// built-in simulator, a replayed operation log, or a fault-injecting wrapper.
func NewController(dev device.Device, opts ...Option) *Controller {
	p, g := dev.Timing(), dev.Geometry()
	c := &Controller{
		dev:         dev,
		params:      p,
		cTRRD:       p.Cycles(p.TRRD),
		cTFAW:       p.Cycles(p.TFAW),
		cBurst:      p.BurstCycles(),
		cTCWL:       p.Cycles(p.TCWL),
		rowsPerBank: g.RowsPerBank,
		wordsPerRow: g.WordsPerRow(),
		wordU64s:    g.WordBits / 64,
		banks:       make([]*timing.BankFSM, g.Banks),
		phase:       make([]phaseSlot, g.Banks),
		lastACT:     -1 << 60,
	}
	c.reader, _ = dev.(device.WordReaderInto)
	c.sampler, _ = dev.(device.WordSampler)
	for i := range c.banks {
		c.banks[i] = timing.NewBankFSM(p)
		// A controller takes over a device assuming every bank is
		// precharged; close any rows a previous controller left open.
		_ = dev.Precharge(i)
	}
	for _, o := range opts {
		o(c)
	}
	if c.refreshEnabled {
		c.nextRefresh = p.Cycles(p.TREFI)
	}
	return c
}

// Device returns the device this controller drives.
func (c *Controller) Device() device.Device { return c.dev }

// Params returns the controller's default timing parameters.
func (c *Controller) Params() timing.Params { return c.params }

// Now returns the current command-clock cycle.
func (c *Controller) Now() int64 { return c.now }

// NowNS returns the current time in nanoseconds.
func (c *Controller) NowNS() float64 { return c.params.NS(c.now) }

// Stats returns a snapshot of the controller's counters.
func (c *Controller) Stats() Stats {
	s := c.stats
	s.Cycles = c.now
	return s
}

// Trace returns the recorded command trace (nil unless WithTrace was used).
func (c *Controller) Trace() []timing.Command { return c.trace }

// ResetTrace discards the recorded command trace and returns the number of
// commands dropped.
func (c *Controller) ResetTrace() int {
	n := len(c.trace)
	c.trace = c.trace[:0]
	return n
}

// SetReducedTRCD programs the timing-register file with a reduced activation
// latency in nanoseconds. The paper finds activation failures inducible for
// tRCD between roughly 6 ns and 13 ns (default 18 ns); the controller
// accepts any positive value not exceeding the default.
func (c *Controller) SetReducedTRCD(ns float64) error {
	if ns <= 0 {
		return fmt.Errorf("memctrl: reduced tRCD must be positive, got %v", ns)
	}
	if ns > c.params.TRCD {
		return fmt.Errorf("memctrl: reduced tRCD %v ns exceeds the default %v ns", ns, c.params.TRCD)
	}
	c.reducedTRCDNS = ns
	return nil
}

// ResetTRCD restores the default activation latency.
func (c *Controller) ResetTRCD() { c.reducedTRCDNS = 0 }

// EffectiveTRCD returns the activation latency currently in effect, in
// nanoseconds.
func (c *Controller) EffectiveTRCD() float64 {
	if c.reducedTRCDNS > 0 {
		return c.reducedTRCDNS
	}
	return c.params.TRCD
}

// record appends a command to the trace (when enabled) and bumps counters.
func (c *Controller) record(kind timing.CommandKind, bank, row, col int, cycle int64) {
	switch kind {
	case timing.CmdACT:
		c.stats.ACTs++
	case timing.CmdPRE:
		c.stats.PREs++
	case timing.CmdRead:
		c.stats.Reads++
	case timing.CmdWrite:
		c.stats.Writes++
	case timing.CmdRefresh:
		c.stats.Refreshes++
	}
	if c.traceEnabled {
		c.trace = append(c.trace, timing.Command{
			Kind: kind, Bank: bank, Row: row, Column: col, IssueCycle: cycle,
			TRCDOverrideNS: c.reducedTRCDNS,
		})
	}
}

func (c *Controller) checkBank(bank int) error {
	if bank < 0 || bank >= len(c.banks) {
		return fmt.Errorf("memctrl: bank %d out of range [0,%d)", bank, len(c.banks))
	}
	return nil
}

// refreshDue reports whether a periodic refresh is pending.
func (c *Controller) refreshDue() bool {
	return c.refreshEnabled && c.now >= c.nextRefresh
}

// maybeRefresh issues a pending refresh if one is due. All banks are
// precharged first.
func (c *Controller) maybeRefresh() error {
	if !c.refreshDue() {
		return nil
	}
	for bank := range c.banks {
		if c.banks[bank].OpenRow() >= 0 {
			if err := c.issuePRE(bank, c.banks[bank].EarliestPRE()); err != nil {
				return err
			}
			if err := c.dev.Precharge(bank); err != nil {
				return err
			}
		}
	}
	// Wait until every bank can accept the refresh.
	issue := c.now
	for _, b := range c.banks {
		if b.EarliestACT() > issue {
			issue = b.EarliestACT()
		}
	}
	for bank, b := range c.banks {
		if _, err := b.Refresh(issue); err != nil {
			return fmt.Errorf("memctrl: refresh failed on bank %d: %w", bank, err)
		}
	}
	if err := c.dev.Refresh(); err != nil {
		return err
	}
	c.record(timing.CmdRefresh, -1, -1, -1, issue)
	c.now = issue + 1
	c.nextRefresh += c.params.Cycles(c.params.TREFI)
	return nil
}

// earliestFor returns the issue cycle for a command whose per-bank earliest
// legal cycle is e, given that the command bus carries one command per cycle
// in program order.
func (c *Controller) earliestFor(e int64) int64 {
	if e < c.now {
		return c.now
	}
	return e
}

// The issue* methods are the timing half of each command: they pick the
// earliest legal issue cycle and apply the command to the bank state
// machine, the rank and data-bus bookkeeping, the counters, the trace and
// the clock. Their callers hand the device its half.

// issueACT issues an ACT to (bank, row), honouring tRRD and tFAW across
// banks.
func (c *Controller) issueACT(bank, row int) error {
	b := c.banks[bank]
	issue := c.earliestFor(b.EarliestACT())
	if t := c.lastACT + c.cTRRD; t > issue {
		issue = t
	}
	if c.actCount >= 4 {
		// The oldest of the last four ACTs sits at the ring slot the new ACT
		// is about to overwrite.
		if t := c.recentACTs[c.actCount&3] + c.cTFAW; t > issue {
			issue = t
		}
	}
	if _, err := b.Activate(issue, row, c.reducedTRCDNS); err != nil {
		return err
	}
	c.lastACT = issue
	c.recentACTs[c.actCount&3] = issue
	c.actCount++
	c.record(timing.CmdACT, bank, row, -1, issue)
	c.now = issue + 1
	return nil
}

// issuePRE issues a PRE to bank no earlier than cycle earliest.
func (c *Controller) issuePRE(bank int, earliest int64) error {
	issue := c.earliestFor(earliest)
	if _, err := c.banks[bank].Precharge(issue); err != nil {
		return err
	}
	c.record(timing.CmdPRE, bank, -1, -1, issue)
	c.now = issue + 1
	return nil
}

// issueRD issues a READ of (bank, row, wordIdx) and returns the cycle at
// which its data burst completes on the data bus.
func (c *Controller) issueRD(bank, row, wordIdx int) (int64, error) {
	b := c.banks[bank]
	issue := c.earliestFor(b.EarliestRead())
	done, viol, err := b.Read(issue)
	if err != nil {
		return 0, err
	}
	if viol != nil && !viol.Intentional() {
		return 0, viol
	}
	if viol != nil {
		c.stats.TRCDViolations++
	}
	if c.reducedTRCDNS > 0 {
		c.stats.TRCDViolations++
	}
	if done < c.busBusyUntil+c.cBurst {
		done = c.busBusyUntil + c.cBurst
	}
	c.busBusyUntil = done
	c.stats.DataBusCycles += c.cBurst
	c.record(timing.CmdRead, bank, row, wordIdx, issue)
	c.now = issue + 1
	return done, nil
}

// issueWR issues a WRITE of (bank, row, wordIdx) and returns the cycle at
// which write recovery completes.
func (c *Controller) issueWR(bank, row, wordIdx int) (int64, error) {
	b := c.banks[bank]
	issue := c.earliestFor(b.EarliestWrite())
	done, viol, err := b.Write(issue)
	if err != nil {
		return 0, err
	}
	if viol != nil && !viol.Intentional() {
		return 0, viol
	}
	c.busBusyUntil = issue + c.cTCWL + c.cBurst
	c.stats.DataBusCycles += c.cBurst
	c.record(timing.CmdWrite, bank, row, wordIdx, issue)
	c.now = issue + 1
	return done, nil
}

// PrechargeBank closes the open row of bank (no-op when already closed).
func (c *Controller) PrechargeBank(bank int) error {
	if err := c.checkBank(bank); err != nil {
		return err
	}
	b := c.banks[bank]
	if b.OpenRow() < 0 {
		return nil
	}
	if err := c.issuePRE(bank, b.EarliestPRE()); err != nil {
		return err
	}
	return c.dev.Precharge(bank)
}

// openRowFor ensures row is open in bank, precharging any other open row and
// activating as needed.
func (c *Controller) openRowFor(bank, row int) error {
	if err := c.maybeRefresh(); err != nil {
		return err
	}
	b := c.banks[bank]
	open := b.OpenRow()
	if open == row {
		return nil
	}
	if open >= 0 {
		if err := c.issuePRE(bank, b.EarliestPRE()); err != nil {
			return err
		}
		if err := c.dev.Precharge(bank); err != nil {
			return err
		}
	}
	if err := c.issueACT(bank, row); err != nil {
		return err
	}
	return c.dev.Activate(bank, row, c.EffectiveTRCD())
}

// ActivateRow ensures row is open in bank, precharging any other open row
// first. Issuing the activations for several banks before their column
// commands lets the controller overlap the activation latencies across
// banks, which is how Algorithm 2 exploits bank-level parallelism.
//
//drange:noalloc
func (c *Controller) ActivateRow(bank, row int) error {
	if err := c.checkBank(bank); err != nil {
		return err
	}
	if row < 0 || row >= c.rowsPerBank {
		return fmt.Errorf("memctrl: row %d out of range [0,%d)", row, c.rowsPerBank)
	}
	return c.openRowFor(bank, row)
}

// ReadWord reads the DRAM word at (bank, row, wordIdx) using the currently
// programmed timing parameters (reduced tRCD induces activation failures in
// the first word read after the activation). It returns the word and the
// cycle at which the data burst completes on the data bus.
func (c *Controller) ReadWord(bank, row, wordIdx int) ([]uint64, int64, error) {
	data := make([]uint64, c.wordU64s)
	done, err := c.ReadWordInto(bank, row, wordIdx, data)
	if err != nil {
		return nil, 0, err
	}
	return data, done, nil
}

// ReadWordInto is ReadWord writing the word into dst (which must hold
// WordBits/64 uint64s), so steady-state sampling loops can reuse one buffer
// instead of allocating per read. It returns the cycle at which the data
// burst completes.
//
//drange:noalloc
func (c *Controller) ReadWordInto(bank, row, wordIdx int, dst []uint64) (int64, error) {
	if err := c.checkBank(bank); err != nil {
		return 0, err
	}
	if c.banks[bank].OpenRow() != row || c.refreshDue() {
		if err := c.openRowFor(bank, row); err != nil {
			return 0, err
		}
	}
	done, err := c.issueRD(bank, row, wordIdx)
	if err != nil {
		return 0, err
	}
	if err := c.readWord(bank, wordIdx, dst); err != nil {
		return 0, err
	}
	return done, nil
}

// readWord hands the device a READ of word wordIdx of bank's open row into
// dst, through the device's allocation-free fast path when it offers one
// (the capability is optional so wrapping backends — replay, fault
// injection — keep working unchanged).
func (c *Controller) readWord(bank, wordIdx int, dst []uint64) error {
	if c.reader != nil {
		return c.reader.ReadWordInto(bank, wordIdx, dst)
	}
	data, err := c.dev.ReadWord(bank, wordIdx)
	if err != nil {
		return err
	}
	copy(dst, data)
	return nil
}

// WriteWord writes the DRAM word at (bank, row, wordIdx). It returns the
// cycle at which write recovery completes.
//
//drange:noalloc
func (c *Controller) WriteWord(bank, row, wordIdx int, word []uint64) (int64, error) {
	if err := c.checkBank(bank); err != nil {
		return 0, err
	}
	if c.banks[bank].OpenRow() != row || c.refreshDue() {
		if err := c.openRowFor(bank, row); err != nil {
			return 0, err
		}
	}
	done, err := c.issueWR(bank, row, wordIdx)
	if err != nil {
		return 0, err
	}
	if err := c.dev.WriteWord(bank, wordIdx, word); err != nil {
		return 0, err
	}
	return done, nil
}

// SampleOp is one word of a SamplePhase: the DRAM word (Bank, Row, Word), the
// buffer Dst its reduced-latency read lands in, and the value Restore written
// back after the read. Both buffers hold WordBits/64 uint64s, and no op's
// Restore may overlap another op's Dst, since a device taking the sample
// fused reads Restore at the op's READ slot, not its WRITE's. The options
// turn Algorithm 2's sample into Algorithm 1's probe: Refresh refreshes the
// row first (an ACT at the default tRCD, then a PRE), RestoreIfDirty writes
// Restore only when the read differs from it, and Close precharges the bank
// after the sample.
type SampleOp struct {
	Bank, Row, Word int
	Dst, Restore    []uint64

	Refresh, RestoreIfDirty, Close bool
}

// phaseSlot is what one SamplePhase call issued for a bank.
type phaseSlot struct {
	gen   uint64 // the SamplePhase call that claimed the bank
	fused bool   // a reduced ACT was issued and the device takes it as SampleWord
	// mode holds the commands the controller issued before the reduced ACT,
	// which a fused device applies with it.
	mode dram.SampleMode
}

// SamplePhase issues one Algorithm 2 half-iteration over ops, which must name
// different banks: an ACT for every op, preceded by the PRE that closes the
// bank's other open row (neither when the op's row is already open), then a
// READ of every op's word into its Dst, then a WRITE of every op's Restore,
// then, for ops with Close, a PRE, each in op order. An op with Refresh gets
// the refresh at its ACT slot: the PRE closing the bank's open row, then the
// row's ACT and PRE at the default tRCD (only the PRE when the row was open),
// then its reduced ACT. An op with RestoreIfDirty issues no WRITE when its
// read equals Restore. Every command gets the issue cycle, bank-state update,
// tRRD/tFAW and data-bus bookkeeping, counters and trace record the
// per-command methods give it, so the banks' activation latencies overlap. A
// due refresh is issued once, at the phase start, so none can fall between an
// op's ACT and its READ. Every op is validated before any command issues.
//
// The device sees the same commands in the same order. When it implements
// device.WordSampler, an op that issued a reduced ACT reaches it as one
// SampleWord call at the op's READ slot, carrying every command of the op, so
// a noise stream shared across banks is drawn in op order either way; every
// other command reaches the device at its own slot, as the per-command
// methods hand it over.
//
//drange:noalloc
func (c *Controller) SamplePhase(ops []SampleOp) error {
	c.phaseGen++
	closes := false
	for i := range ops {
		op := &ops[i]
		closes = closes || op.Close
		if err := c.checkBank(op.Bank); err != nil {
			return err
		}
		if op.Row < 0 || op.Row >= c.rowsPerBank {
			return fmt.Errorf("memctrl: row %d out of range [0,%d)", op.Row, c.rowsPerBank)
		}
		if op.Word < 0 || op.Word >= c.wordsPerRow {
			return fmt.Errorf("memctrl: word %d out of range [0,%d)", op.Word, c.wordsPerRow)
		}
		if len(op.Dst) != c.wordU64s || len(op.Restore) != c.wordU64s {
			return fmt.Errorf("memctrl: sample buffers hold %d and %d uint64s, want %d", len(op.Dst), len(op.Restore), c.wordU64s)
		}
		s := &c.phase[op.Bank]
		if s.gen == c.phaseGen {
			return fmt.Errorf("memctrl: bank %d sampled twice in one phase", op.Bank)
		}
		*s = phaseSlot{gen: c.phaseGen}
	}
	if err := c.maybeRefresh(); err != nil {
		return err
	}
	for i := range ops {
		op := &ops[i]
		b, s := c.banks[op.Bank], &c.phase[op.Bank]
		if op.Refresh {
			reduced := c.reducedTRCDNS
			c.reducedTRCDNS = 0
			err := c.refreshRow(op.Bank, op.Row, s)
			c.reducedTRCDNS = reduced
			if err != nil {
				return err
			}
		}
		open := b.OpenRow()
		if open == op.Row {
			continue
		}
		if open >= 0 {
			if err := c.prechargeForSample(op.Bank, s); err != nil {
				return err
			}
		}
		if err := c.issueACT(op.Bank, op.Row); err != nil {
			return err
		}
		s.fused = c.sampler != nil
		if !s.fused {
			if err := c.dev.Activate(op.Bank, op.Row, c.EffectiveTRCD()); err != nil {
				return err
			}
		}
	}
	for i := range ops {
		op := &ops[i]
		if _, err := c.issueRD(op.Bank, op.Row, op.Word); err != nil {
			return err
		}
		s := &c.phase[op.Bank]
		var err error
		if s.fused {
			mode := s.mode
			if op.RestoreIfDirty {
				mode |= dram.SampleRestoreIfDirty
			}
			if op.Close {
				mode |= dram.SampleClose
			}
			err = c.sampler.SampleWord(op.Bank, op.Row, op.Word, mode, c.EffectiveTRCD(), op.Dst, op.Restore)
		} else {
			err = c.readWord(op.Bank, op.Word, op.Dst)
		}
		if err != nil {
			return err
		}
	}
	for i := range ops {
		op := &ops[i]
		if op.RestoreIfDirty && slices.Equal(op.Dst, op.Restore) {
			continue
		}
		if _, err := c.issueWR(op.Bank, op.Row, op.Word); err != nil {
			return err
		}
		if !c.phase[op.Bank].fused {
			if err := c.dev.WriteWord(op.Bank, op.Word, op.Restore); err != nil {
				return err
			}
		}
	}
	// Serving's phases close no row; they skip the loop.
	if !closes {
		return nil
	}
	for i := range ops {
		op := &ops[i]
		if !op.Close {
			continue
		}
		if err := c.issuePRE(op.Bank, c.banks[op.Bank].EarliestPRE()); err != nil {
			return err
		}
		if !c.phase[op.Bank].fused {
			if err := c.dev.Precharge(op.Bank); err != nil {
				return err
			}
		}
	}
	return nil
}

// refreshRow issues the refresh of (bank, row) that Algorithm 1 (lines 6–7)
// runs before each reduced-latency read, with the tRCD override cleared by
// the caller: the PRE closing the bank's open row, then, unless that row was
// row, row's ACT and PRE, which restore its cells' charge. The device gets
// each command at its slot unless it takes the sample fused; s records what
// it then applies first.
func (c *Controller) refreshRow(bank, row int, s *phaseSlot) error {
	b := c.banks[bank]
	open := b.OpenRow()
	if open >= 0 {
		if err := c.prechargeForSample(bank, s); err != nil {
			return err
		}
	}
	if open == row {
		return nil
	}
	if err := c.issueACT(bank, row); err != nil {
		return err
	}
	if err := c.issuePRE(bank, b.EarliestPRE()); err != nil {
		return err
	}
	s.mode |= dram.SampleRefresh
	if c.sampler != nil {
		return nil
	}
	if err := c.dev.Activate(bank, row, c.params.TRCD); err != nil {
		return err
	}
	return c.dev.Precharge(bank)
}

// prechargeForSample issues the PRE that closes bank's open row ahead of a
// sample's ACT. The device gets it at its slot unless it takes the sample
// fused; s records it for that case.
func (c *Controller) prechargeForSample(bank int, s *phaseSlot) error {
	if err := c.issuePRE(bank, c.banks[bank].EarliestPRE()); err != nil {
		return err
	}
	s.mode |= dram.SamplePrecharge
	if c.sampler != nil {
		return nil
	}
	return c.dev.Precharge(bank)
}

// Idle advances the controller clock by the given number of cycles without
// issuing commands (models the controller servicing nothing or other ranks).
func (c *Controller) Idle(cycles int64) {
	if cycles > 0 {
		c.now += cycles
	}
}

// SyncAllBanks advances the clock until every bank has completed its
// outstanding timing windows (all banks precharged or active and stable),
// and returns the resulting cycle.
func (c *Controller) SyncAllBanks() int64 {
	latest := c.now
	for _, b := range c.banks {
		if b.EarliestACT() > latest {
			latest = b.EarliestACT()
		}
		if b.EarliestPRE() > latest && b.OpenRow() >= 0 {
			latest = b.EarliestPRE()
		}
	}
	if c.busBusyUntil > latest {
		latest = c.busBusyUntil
	}
	c.now = latest
	return c.now
}

// OpenRow returns the row currently open in bank, or -1.
func (c *Controller) OpenRow(bank int) (int, error) {
	if err := c.checkBank(bank); err != nil {
		return 0, err
	}
	return c.banks[bank].OpenRow(), nil
}
